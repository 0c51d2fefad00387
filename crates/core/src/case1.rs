//! Case 1: independent problems per GPU (§4).
//!
//! "Each problem can be perfectly stored in a single GPU memory but using
//! each GPU to compute independently several problems may improve
//! performance. … Solving the Case 1 is trivial, simply executing the
//! strategy analyzed in Section 3 through several GPUs, since there is no
//! communication among GPUs."
//!
//! The batch is split across all `M · W` selected GPUs; each runs the
//! full single-GPU pipeline on its share, with no communication at all.

use gpu_sim::DeviceSpec;
use interconnect::{ExecGraph, Fabric};
use skeletons::{ScanOp, Scannable, SplkTuple};

use crate::error::{ScanError, ScanResult};
use crate::exec::{build_pipeline_graph, PipelinePolicy};
use crate::params::{NodeConfig, ProblemParams, ScanKind};
use crate::report::ScanOutput;

/// Batch inclusive scan with one-problem-set-per-GPU distribution — the
/// body behind [`crate::Proposal::Case1`].
///
/// Requires `G ≥ total GPUs` (each GPU gets at least one whole problem).
pub(crate) fn scan_case1<T: Scannable, O: ScanOp<T>>(
    op: O,
    tuple: SplkTuple,
    device: &DeviceSpec,
    fabric: &Fabric,
    cfg: NodeConfig,
    problem: ProblemParams,
    input: &[T],
) -> ScanResult<ScanOutput<T>> {
    cfg.validate_against(fabric.topology())?;
    if input.len() != problem.total_elems() {
        return Err(ScanError::InvalidInput(format!(
            "input holds {} elements but G·N = {}",
            input.len(),
            problem.total_elems()
        )));
    }
    let gpus = cfg.selected_gpus(fabric.topology());
    if problem.batch() < gpus.len() {
        return Err(ScanError::InvalidConfig(format!(
            "Case 1 needs at least one problem per GPU: G = {} < {} GPUs",
            problem.batch(),
            gpus.len()
        )));
    }
    let per_gpu = problem.batch() / gpus.len();
    let sub_problem = ProblemParams::new(problem.n(), per_gpu.trailing_zeros());
    let n = problem.problem_size();

    let mut data = vec![T::default(); problem.total_elems()];
    // GPUs run concurrently on disjoint shares with no communication: each
    // builds its own subgraph, and the merged graph's schedule overlaps
    // them (with identical shares, the makespan equals the phase-wise
    // maximum the old model reported).
    let mut graph = ExecGraph::new();
    let policy = PipelinePolicy::default();
    for (i, &gid) in gpus.iter().enumerate() {
        let start = i * per_gpu * n;
        let end = start + per_gpu * n;
        let mut gpu_graph = ExecGraph::new();
        build_pipeline_graph(
            &mut gpu_graph,
            op,
            tuple,
            device,
            fabric,
            &[gid],
            0,
            sub_problem,
            &input[start..end],
            ScanKind::Inclusive,
            &policy,
            None,
            &mut data[start..end],
        )?;
        graph.merge(gpu_graph);
    }
    ScanOutput::from_graph(
        format!("Scan-Case1 {} GPUs", gpus.len()),
        problem.total_elems(),
        data,
        graph,
        None,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_batch;
    use skeletons::Add;

    fn pseudo(n: usize) -> Vec<i32> {
        (0..n).map(|i| ((i as i64 * 131 + 17) % 191) as i32 - 95).collect()
    }

    fn run_case1(
        tuple: SplkTuple,
        cfg: NodeConfig,
        problem: ProblemParams,
        input: &[i32],
    ) -> ScanResult<ScanOutput<i32>> {
        crate::ScanRequest::new(Add, problem)
            .proposal(crate::Proposal::Case1)
            .devices(cfg)
            .tuple(tuple)
            .run(input)
    }

    #[test]
    fn independent_problems_scan_correctly() {
        let problem = ProblemParams::new(12, 3); // 8 problems over 4 GPUs
        let input = pseudo(problem.total_elems());
        let cfg = NodeConfig::new(4, 4, 1, 1).unwrap();
        let out = run_case1(SplkTuple::kepler_premises(0), cfg, problem, &input).unwrap();
        verify_batch(Add, problem, &input, &out.data).unwrap();
        assert!(out.report.label.contains("4 GPUs"));
    }

    #[test]
    fn no_communication_phases() {
        let problem = ProblemParams::new(12, 2);
        let input = pseudo(problem.total_elems());
        let cfg = NodeConfig::new(2, 2, 1, 1).unwrap();
        let out = run_case1(SplkTuple::kepler_premises(0), cfg, problem, &input).unwrap();
        assert_eq!(out.report.timeline.seconds_with_prefix("comm:"), 0.0);
        assert_eq!(out.report.timeline.seconds_with_prefix("MPI"), 0.0);
    }

    #[test]
    fn too_few_problems_rejected() {
        let problem = ProblemParams::new(12, 1); // 2 problems, 4 GPUs
        let input = pseudo(problem.total_elems());
        let cfg = NodeConfig::new(4, 4, 1, 1).unwrap();
        assert!(matches!(
            run_case1(SplkTuple::kepler_premises(0), cfg, problem, &input),
            Err(ScanError::InvalidConfig(_))
        ));
    }

    #[test]
    fn scales_throughput_with_gpus() {
        // Large enough that memory time, not launch overhead, dominates.
        let problem = ProblemParams::new(16, 6);
        let input = pseudo(problem.total_elems());
        let t = SplkTuple::kepler_premises(1);
        let one = run_case1(t, NodeConfig::single_gpu(), problem, &input).unwrap();
        let four = run_case1(t, NodeConfig::new(4, 4, 1, 1).unwrap(), problem, &input).unwrap();
        assert!(
            four.report.seconds() < one.report.seconds() / 2.0,
            "4 independent GPUs must be much faster ({} vs {})",
            four.report.seconds(),
            one.report.seconds()
        );
    }
}
