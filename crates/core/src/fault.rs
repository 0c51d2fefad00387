//! Fault injection with degraded-mode replanning.
//!
//! Each proposal has one builder, with an optional plan:
//! `ScanRequest::faults` hands the proposal's builder a seeded
//! [`FaultPlan`], and a run without one does none of the fault work.
//!
//! * **SM throttles** slow the affected GPU's kernels (applied by the
//!   `gpu-sim` layer, so the throttled durations flow into the execution
//!   graph automatically);
//! * **link faults** (degradation, transient failures with retry/backoff,
//!   permanent loss) re-price the finished graph's transfers through
//!   [`interconnect::apply_link_faults`];
//! * **device evictions** trigger **degraded-mode replanning** inside
//!   `exec::build_pipeline_graph`: the doomed sub-batch is aborted (the
//!   victim's launch fails with `DeviceLost`, survivors' Stage-1 work is
//!   wasted), the planner re-derives the Eq. 2/3 portions over the
//!   surviving GPUs, and the sub-batch is rerun under `recovery:`-prefixed
//!   phases so the extra work appears as its own rows in the Fig. 14-style
//!   breakdown. Later sub-batches stay on the survivors — the device is
//!   gone for good.
//!
//! Faults change *timing and scheduling only, never data*: every faulted
//! run's output is bit-identical to the fault-free scan (the differential
//! harness in `tests/fault_differential.rs` asserts this across a matrix of
//! seeds, plans and proposals). A [`FaultReport`] records what was
//! injected, what retried and what was replanned. This module holds the
//! fault-specific helpers the builders share.

use interconnect::{FaultEvent, FaultPlan, FaultReport};
use skeletons::Scannable;

use crate::multi_gpu::Worker;

/// Largest power of two ≤ `n` (0 maps to 0). Shared with the lease
/// planner, whose partial-lease rule is the same largest-feasible-subset
/// rule the replanner applies to eviction survivors.
pub(crate) fn largest_pow2(n: usize) -> usize {
    if n == 0 {
        0
    } else {
        1 << (usize::BITS - 1 - n.leading_zeros())
    }
}

/// One run under a fault plan: the plan, and the report of what it did.
pub(crate) struct Injection<'a> {
    pub(crate) plan: &'a FaultPlan,
    pub(crate) report: FaultReport,
}

impl<'a> Injection<'a> {
    /// Start a run under `plan` on `gpus`, the GPUs the run actually uses:
    /// records one `GpuThrottled` event per plan entry that names one of
    /// them.
    pub(crate) fn start(plan: &'a FaultPlan, gpus: &[usize]) -> Self {
        let mut report = FaultReport::new(plan);
        for &(gpu, factor) in plan.throttles() {
            if gpus.contains(&gpu) {
                report.push(FaultEvent::GpuThrottled { gpu, factor });
            }
        }
        Injection { plan, report }
    }

    /// The GPUs of `active` the plan evicts at sub-batch `b` of `batches`,
    /// each listed once. An eviction past the end of the batch fires at
    /// the last sub-batch rather than silently never.
    pub(crate) fn victims(&self, b: usize, batches: usize, active: &[usize]) -> Vec<usize> {
        let mut victims = Vec::new();
        for e in self.plan.evictions() {
            if e.at_sub_batch.min(batches - 1) == b
                && active.contains(&e.gpu)
                && !victims.contains(&e.gpu)
            {
                victims.push(e.gpu);
            }
        }
        victims
    }
}

/// Slow each worker's GPU by the plan's SM throttle for it.
pub(crate) fn throttle_workers<T: Scannable>(plan: &FaultPlan, workers: &mut [Worker<T>]) {
    for w in workers {
        let factor = plan.throttle_of(w.global_id);
        if factor > 1.0 {
            w.gpu.set_sm_throttle(factor);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceSpec;
    use interconnect::{Fabric, Resource};
    use skeletons::{reference_inclusive, Add, SplkTuple};

    use crate::error::ScanError;
    use crate::exec::PipelinePolicy;
    use crate::params::{NodeConfig, ProblemParams, ScanKind};

    fn pseudo(n: usize) -> Vec<i32> {
        (0..n).map(|i| ((i as i64 * 69069 + 5) % 199) as i32 - 99).collect()
    }

    fn k80() -> DeviceSpec {
        DeviceSpec::tesla_k80()
    }

    fn verify_batch(out: &[i32], input: &[i32], problem: ProblemParams) {
        let n = problem.problem_size();
        for g in 0..problem.batch() {
            let expected = reference_inclusive(Add, &input[g * n..(g + 1) * n]);
            assert_eq!(&out[g * n..(g + 1) * n], &expected[..], "problem {g}");
        }
    }

    #[test]
    fn largest_pow2_truncation() {
        assert_eq!(largest_pow2(0), 0);
        assert_eq!(largest_pow2(1), 1);
        assert_eq!(largest_pow2(3), 2);
        assert_eq!(largest_pow2(4), 4);
        assert_eq!(largest_pow2(7), 4);
    }

    #[test]
    fn victims_are_listed_once_and_late_evictions_clamp() {
        let plan = FaultPlan::new(0).evict_gpu(1, 0).evict_gpu(1, 0).evict_gpu(3, 9);
        let injection = Injection::start(&plan, &[0, 1, 2, 3]);
        assert_eq!(injection.victims(0, 2, &[0, 1, 2, 3]), vec![1]);
        assert_eq!(injection.victims(1, 2, &[0, 1, 2, 3]), vec![3]);
        assert!(injection.victims(0, 2, &[0, 2]).is_empty(), "only active GPUs can be evicted");
    }

    #[test]
    fn throttle_slows_schedule_but_not_data() {
        let fabric = Fabric::tsubame_kfc(1);
        let problem = ProblemParams::new(13, 2);
        let input = pseudo(problem.total_elems());
        let cfg = NodeConfig::new(2, 2, 1, 1).unwrap();
        let tuple = SplkTuple::kepler_premises(0);
        let run = |faults: Option<&FaultPlan>| {
            crate::mps::scan_mps(
                Add,
                tuple,
                &k80(),
                &fabric,
                cfg,
                problem,
                &input,
                ScanKind::Inclusive,
                &PipelinePolicy::default(),
                faults,
            )
            .unwrap()
        };
        let healthy = run(None);
        let faulted = run(Some(&FaultPlan::new(3).throttle_gpu(1, 4.0)));
        assert_eq!(faulted.data, healthy.data, "throttling is timing-only");
        assert!(
            faulted.report.makespan > healthy.report.makespan,
            "a throttled GPU must stretch the makespan ({} vs {})",
            faulted.report.makespan,
            healthy.report.makespan
        );
        assert_eq!(
            faulted.faults.expect("faulted runs carry a report").events,
            vec![FaultEvent::GpuThrottled { gpu: 1, factor: 4.0 }]
        );
    }

    #[test]
    fn eviction_replans_and_reports_recovery() {
        let fabric = Fabric::tsubame_kfc(1);
        let problem = ProblemParams::new(14, 2);
        let input = pseudo(problem.total_elems());
        let cfg = NodeConfig::new(4, 4, 1, 1).unwrap();
        let tuple = SplkTuple::kepler_premises(0);
        let faulted = crate::mps::scan_mps(
            Add,
            tuple,
            &k80(),
            &fabric,
            cfg,
            problem,
            &input,
            ScanKind::Inclusive,
            &PipelinePolicy::batched_barrier(4),
            Some(&FaultPlan::new(11).evict_gpu(2, 1)),
        )
        .unwrap();
        verify_batch(&faulted.data, &input, problem);
        let fault_report = faulted.faults.as_ref().expect("faulted runs carry a report");
        assert!(fault_report.any_eviction());
        assert_eq!(fault_report.replans(), 1);
        // Survivors {0, 1, 3} truncate to a power-of-two pair.
        let replanned = fault_report
            .events
            .iter()
            .find_map(|e| match e {
                FaultEvent::Replanned { from_gpus, to_gpus, sub_batch } => {
                    Some((from_gpus.clone(), to_gpus.clone(), *sub_batch))
                }
                _ => None,
            })
            .unwrap();
        assert_eq!(replanned, (vec![0, 1, 2, 3], vec![0, 1], 1));
        let breakdown =
            crate::breakdown::Breakdown::from_graph(faulted.report.graph.as_ref().unwrap());
        assert!(
            breakdown.seconds_with_prefix("recovery") > 0.0,
            "replanning must be visible as a recovery phase"
        );
    }

    #[test]
    fn evicting_the_only_gpu_errors_cleanly() {
        let problem = ProblemParams::new(13, 0);
        let input = pseudo(problem.total_elems());
        let err = crate::single::scan_sp(
            Add,
            SplkTuple::kepler_premises(0),
            &k80(),
            problem,
            &input,
            ScanKind::Inclusive,
            Some(&FaultPlan::new(0).evict_gpu(0, 0)),
        )
        .unwrap_err();
        match err {
            ScanError::InvalidConfig(msg) => assert!(msg.contains("last GPU"), "got: {msg}"),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn mppc_eviction_only_replans_the_losing_group() {
        let fabric = Fabric::tsubame_kfc(1);
        let problem = ProblemParams::new(13, 3);
        let input = pseudo(problem.total_elems());
        let cfg = NodeConfig::new(4, 2, 2, 1).unwrap();
        let tuple = SplkTuple::kepler_premises(0);
        // GPU 4 is in the second network's group.
        let faulted = crate::mppc::scan_mppc(
            Add,
            tuple,
            &k80(),
            &fabric,
            cfg,
            problem,
            &input,
            &PipelinePolicy::barrier_synchronous(),
            Some(&FaultPlan::new(5).evict_gpu(4, 0)),
        )
        .unwrap();
        verify_batch(&faulted.data, &input, problem);
        let fault_report = faulted.faults.as_ref().expect("faulted runs carry a report");
        assert_eq!(fault_report.replans(), 1);
        let to = fault_report
            .events
            .iter()
            .find_map(|e| match e {
                FaultEvent::Replanned { to_gpus, .. } => Some(to_gpus.clone()),
                _ => None,
            })
            .unwrap();
        assert_eq!(to, vec![5], "only network 1's group replans, onto its survivor");
    }

    #[test]
    fn multinode_rejects_evictions_but_takes_link_faults() {
        let fabric = Fabric::tsubame_kfc(2);
        let problem = ProblemParams::new(14, 1);
        let input = pseudo(problem.total_elems());
        let cfg = NodeConfig::new(2, 2, 1, 2).unwrap();
        let tuple = SplkTuple::kepler_premises(0);
        let run = |faults: Option<&FaultPlan>| {
            crate::multinode::scan_mps_multinode(
                Add,
                tuple,
                &k80(),
                &fabric,
                cfg,
                problem,
                &input,
                faults,
            )
        };
        let err = run(Some(&FaultPlan::new(0).evict_gpu(0, 0))).unwrap_err();
        assert!(matches!(err, ScanError::InvalidConfig(_)));

        let healthy = run(None).unwrap();
        let degraded = run(Some(&FaultPlan::new(9).degrade_link(Resource::ib(0, 1), 8.0))).unwrap();
        assert_eq!(degraded.data, healthy.data);
        assert!(
            degraded.report.makespan > healthy.report.makespan,
            "a degraded InfiniBand link must stretch the MPI collectives"
        );
    }
}
