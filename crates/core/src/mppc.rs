//! Scan-MP-PC: Multi-GPU Problem with Prioritized Communications
//! (§4.1.1, Fig. 8).
//!
//! A sub-case of Scan-MPS that never leaves a PCIe network: the `Y`
//! networks of each node (across `M` nodes) each take `G / (M · Y)`
//! problems and solve them with their `V` GPUs, so every aux exchange is
//! P2P. "Communication is only performed among the V GPUs of the same
//! PCI-e network, whereas other PCI-e GPUs work on their problems."
//!
//! The multi-node variant "runs the same code … being executed through
//! several computing nodes. There is no MPI communication in this
//! proposal."
//!
//! When the batch has fewer problems than there are network groups, "the
//! number of PCI-e \[networks\] being used has to be reduced".

use gpu_sim::DeviceSpec;
use interconnect::{ExecGraph, Fabric, FaultPlan};
use skeletons::{ScanOp, Scannable, SplkTuple};

use crate::error::{ScanError, ScanResult};
use crate::exec::{build_pipeline_graph, PipelinePolicy};
use crate::fault::Injection;
use crate::params::{NodeConfig, ProblemParams, ScanKind};
use crate::report::ScanOutput;

/// Batch inclusive scan with Prioritized Communications — the body behind
/// [`crate::Proposal::Mppc`].
///
/// Uses `M · Y` independent network groups of `V` GPUs each; groups run
/// concurrently with no inter-group communication, each applying `policy`
/// to its own slice. Groups never share a stream or link, so they overlap
/// fully in the schedule of the one graph the run is built into.
///
/// A healthy run builds each group's subgraph on its own and merges the
/// subgraphs by phase index. Under `faults`, the groups are appended into
/// the graph one after another instead, so a group that replans after an
/// eviction keeps its extra `recovery:` phases as its own rows
/// (index-matching could not align them); only that group replans.
#[allow(clippy::too_many_arguments)]
pub(crate) fn scan_mppc<T: Scannable, O: ScanOp<T>>(
    op: O,
    tuple: SplkTuple,
    device: &DeviceSpec,
    fabric: &Fabric,
    cfg: NodeConfig,
    problem: ProblemParams,
    input: &[T],
    policy: &PipelinePolicy,
    faults: Option<&FaultPlan>,
) -> ScanResult<ScanOutput<T>> {
    cfg.validate_against(fabric.topology())?;
    if input.len() != problem.total_elems() {
        return Err(ScanError::InvalidInput(format!(
            "input holds {} elements but G·N = {}",
            input.len(),
            problem.total_elems()
        )));
    }

    // One group per used PCIe network, across all nodes; reduce the group
    // count when the batch is smaller (all quantities are powers of two).
    let groups_available = cfg.m() * cfg.y();
    let groups = groups_available.min(problem.batch());
    let problems_per_group = problem.batch() / groups;
    let sub_problem = ProblemParams::new(problem.n(), problems_per_group.trailing_zeros());
    let chunk = problems_per_group * problem.problem_size();
    // The selection lists each (node, network)'s `V` GPUs in turn, so the
    // groups that run own its first `groups · V` entries, `V` apiece.
    let mut gpus = cfg.selected_gpus(fabric.topology());
    gpus.truncate(groups * cfg.v());

    let mut faults = faults.map(|plan| Injection::start(plan, &gpus));
    let mut data = vec![T::default(); problem.total_elems()];
    let group_runs = gpus.chunks(cfg.v()).zip(input.chunks(chunk)).zip(data.chunks_mut(chunk));
    let build = |graph: &mut ExecGraph,
                 gpu_ids: &[usize],
                 group_input: &[T],
                 out_chunk: &mut [T],
                 faults: Option<&mut Injection>| {
        build_pipeline_graph(
            graph,
            op,
            tuple,
            device,
            fabric,
            gpu_ids,
            0,
            sub_problem,
            group_input,
            ScanKind::Inclusive,
            policy,
            faults,
            out_chunk,
        )
    };

    let mut graph = ExecGraph::new();
    match faults.as_mut() {
        None => {
            for ((gpu_ids, group_input), out_chunk) in group_runs {
                let mut group_graph = ExecGraph::new();
                build(&mut group_graph, gpu_ids, group_input, out_chunk, None)?;
                graph.merge(group_graph);
            }
        }
        Some(injection) => {
            for ((gpu_ids, group_input), out_chunk) in group_runs {
                build(&mut graph, gpu_ids, group_input, out_chunk, Some(&mut *injection))?;
            }
        }
    }

    let plural = if groups == 1 { "group" } else { "groups" };
    ScanOutput::from_graph(
        format!(
            "Scan-MP-PC W={} V={} Y={} M={} ({groups} {plural})",
            cfg.w(),
            cfg.v(),
            cfg.y(),
            cfg.m()
        ),
        problem.total_elems(),
        data,
        graph,
        faults,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Proposal;
    use skeletons::{reference_inclusive, Add};

    fn pseudo(n: usize) -> Vec<i32> {
        (0..n).map(|i| ((i as i64 * 65497 + 7) % 173) as i32 - 86).collect()
    }

    fn run(
        proposal: Proposal,
        cfg: NodeConfig,
        problem: ProblemParams,
        input: &[i32],
    ) -> ScanOutput<i32> {
        crate::ScanRequest::new(Add, problem).proposal(proposal).devices(cfg).run(input).unwrap()
    }

    fn verify_batch(out: &[i32], input: &[i32], problem: ProblemParams) {
        let n = problem.problem_size();
        for g in 0..problem.batch() {
            let expected = reference_inclusive(Add, &input[g * n..(g + 1) * n]);
            assert_eq!(&out[g * n..(g + 1) * n], &expected[..], "problem {g}");
        }
    }

    #[test]
    fn w4_v2_two_groups() {
        // The paper's first MP-PC test: W=4, V=2 (two networks of two).
        let problem = ProblemParams::new(13, 3);
        let input = pseudo(problem.total_elems());
        let cfg = NodeConfig::new(4, 2, 2, 1).unwrap();
        let out = run(Proposal::Mppc, cfg, problem, &input);
        verify_batch(&out.data, &input, problem);
        assert!(out.report.label.contains("2 groups"));
    }

    #[test]
    fn w8_v4_two_groups() {
        // The paper's second MP-PC test: W=8, V=4.
        let problem = ProblemParams::new(14, 2);
        let input = pseudo(problem.total_elems());
        let cfg = NodeConfig::new(8, 4, 2, 1).unwrap();
        let out = run(Proposal::Mppc, cfg, problem, &input);
        verify_batch(&out.data, &input, problem);
    }

    #[test]
    fn mppc_avoids_host_staging_entirely() {
        // For the same W=8, MP-PC's comm must be far cheaper than MPS's,
        // because no transfer leaves a PCIe network (the Fig. 10 vs Fig. 9
        // story).
        let problem = ProblemParams::new(13, 5);
        let input = pseudo(problem.total_elems());
        let cfg = NodeConfig::new(8, 4, 2, 1).unwrap();
        let mppc = run(Proposal::Mppc, cfg, problem, &input);
        let mps = run(Proposal::Mps, cfg, problem, &input);
        let comm_mppc = mppc.report.timeline.seconds_with_prefix("comm:");
        let comm_mps = mps.report.timeline.seconds_with_prefix("comm:");
        assert!(
            comm_mps > 5.0 * comm_mppc,
            "MP-PC must avoid the host-staged exchange ({comm_mps} vs {comm_mppc})"
        );
        assert!(mppc.report.seconds() < mps.report.seconds());
    }

    #[test]
    fn group_count_reduced_when_batch_is_small() {
        // G = 1 problem with 2 networks available: only one group runs
        // ("the Scan-MP-PC proposal is executed on a V=1 PCI-e network",
        // i.e. it degenerates to MPS on one network).
        let problem = ProblemParams::new(14, 0);
        let input = pseudo(problem.total_elems());
        let cfg = NodeConfig::new(4, 2, 2, 1).unwrap();
        let out = run(Proposal::Mppc, cfg, problem, &input);
        verify_batch(&out.data, &input, problem);
        assert!(out.report.label.contains("(1 group)"), "label: {}", out.report.label);
        assert!(!out.report.label.contains("(1 groups)"), "label: {}", out.report.label);
    }

    #[test]
    fn multinode_mppc_runs_without_mpi() {
        // M = 2: four groups across two nodes, still no MPI phases.
        let problem = ProblemParams::new(13, 4);
        let input = pseudo(problem.total_elems());
        let cfg = NodeConfig::new(4, 2, 2, 2).unwrap();
        let out = run(Proposal::Mppc, cfg, problem, &input);
        verify_batch(&out.data, &input, problem);
        assert!(out.report.label.contains("4 groups"));
        assert_eq!(
            out.report.timeline.seconds_with_prefix("MPI"),
            0.0,
            "there is no MPI communication in this proposal (§4.1.1)"
        );
    }
}
