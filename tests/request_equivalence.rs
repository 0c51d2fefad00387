//! `ScanRequest` is the one public entry point, so its contract is pinned
//! here through the facade for every proposal — healthy and
//! fault-injected, inclusive and exclusive: the data matches the CPU
//! reference, the report names the proposal, and a rerun (through a shared
//! plan cache for healthy runs) reproduces data, schedule bits and fault
//! events exactly. The bit-for-bit comparison against each proposal's
//! crate-private implementation lives in `scan_core::request`'s unit tests.

use std::sync::Arc;

use multigpu_scan::fabric::Resource;
use multigpu_scan::prelude::*;
use multigpu_scan::scan::verify::verify_batch_kind;
use multigpu_scan::scan::{ScanKind, ScanOutput};

fn pseudo(n: usize) -> Vec<i32> {
    (0..n).map(|i| ((i as i64 * 16807 + 11) % 211) as i32 - 105).collect()
}

fn on(proposal: Proposal, cfg: NodeConfig, problem: ProblemParams) -> ScanRequest<Add> {
    ScanRequest::new(Add, problem).proposal(proposal).devices(cfg)
}

/// Same data, same makespan bits, same label, same fault events.
fn assert_identical(first: &ScanOutput<i32>, again: &ScanOutput<i32>) {
    assert_eq!(again.data, first.data, "data must match bit-for-bit");
    assert_eq!(
        again.report.makespan.to_bits(),
        first.report.makespan.to_bits(),
        "schedules must match bit-for-bit"
    );
    assert_eq!(again.report.label, first.report.label);
    assert_eq!(
        again.faults.as_ref().map(|f| &f.events),
        first.faults.as_ref().map(|f| &f.events),
        "fault records must match"
    );
}

/// Run `request`, check it against the reference and `label`, and check
/// that a cold and a replayed run through a fresh plan cache reproduce it.
fn assert_contract(
    request: ScanRequest<Add>,
    input: &[i32],
    problem: ProblemParams,
    kind: ScanKind,
    label: &str,
) -> ScanOutput<i32> {
    let out = request.run(input).unwrap();
    verify_batch_kind(Add, problem, input, &out.data, kind).unwrap();
    assert_eq!(out.report.label, label);
    let cached = request.plan_cache(Arc::new(PlanCache::new()));
    for _ in 0..2 {
        assert_identical(&out, &cached.run(input).unwrap());
    }
    out
}

#[test]
fn request_matches_scan_sp() {
    let problem = ProblemParams::new(13, 2);
    let input = pseudo(problem.total_elems());
    let out = assert_contract(
        ScanRequest::new(Add, problem),
        &input,
        problem,
        ScanKind::Inclusive,
        "Scan-SP",
    );
    assert!(out.faults.is_none());
    assert!(out.trace.is_none());
}

#[test]
fn request_matches_scan_mps() {
    let problem = ProblemParams::new(13, 2);
    let input = pseudo(problem.total_elems());
    let cfg = NodeConfig::new(4, 4, 1, 1).unwrap();
    assert_contract(
        on(Proposal::Mps, cfg, problem),
        &input,
        problem,
        ScanKind::Inclusive,
        "Scan-MPS W=4 V=4 Y=1",
    );
}

#[test]
fn request_matches_scan_mppc() {
    let problem = ProblemParams::new(13, 2);
    let input = pseudo(problem.total_elems());
    let cfg = NodeConfig::new(4, 2, 2, 1).unwrap();
    assert_contract(
        on(Proposal::Mppc, cfg, problem),
        &input,
        problem,
        ScanKind::Inclusive,
        "Scan-MP-PC W=4 V=2 Y=2 M=1 (2 groups)",
    );
}

#[test]
fn request_matches_scan_mps_multinode() {
    let problem = ProblemParams::new(14, 1);
    let input = pseudo(problem.total_elems());
    let cfg = NodeConfig::new(4, 4, 1, 2).unwrap();
    assert_contract(
        on(Proposal::MpsMultinode, cfg, problem),
        &input,
        problem,
        ScanKind::Inclusive,
        "Scan-MPS multi-node M=2 W=4",
    );
}

#[test]
fn request_matches_scan_case1() {
    let problem = ProblemParams::new(13, 3);
    let input = pseudo(problem.total_elems());
    let cfg = NodeConfig::new(4, 4, 1, 1).unwrap();
    assert_contract(
        on(Proposal::Case1, cfg, problem),
        &input,
        problem,
        ScanKind::Inclusive,
        "Scan-Case1 4 GPUs",
    );
}

#[test]
fn request_matches_scan_sp_faulted() {
    let problem = ProblemParams::new(13, 1);
    let input = pseudo(problem.total_elems());
    let plan = FaultPlan::new(7).throttle_gpu(0, 2.0);
    let out = assert_contract(
        ScanRequest::new(Add, problem).faults(plan),
        &input,
        problem,
        ScanKind::Inclusive,
        "Scan-SP [faulted]",
    );
    assert!(!out.faults.expect("faulted runs record a report").events.is_empty());
}

#[test]
fn request_matches_scan_mps_faulted() {
    let problem = ProblemParams::new(13, 2);
    let input = pseudo(problem.total_elems());
    let cfg = NodeConfig::new(4, 4, 1, 1).unwrap();
    let request = on(Proposal::Mps, cfg, problem)
        .pipeline(PipelinePolicy::batched_barrier(4))
        .faults(FaultPlan::new(0xC0FFEE).evict_gpu(2, 1));
    let out = assert_contract(
        request,
        &input,
        problem,
        ScanKind::Inclusive,
        "Scan-MPS W=4 V=4 Y=1 [faulted]",
    );
    assert!(!out.faults.expect("faulted runs record a report").events.is_empty());
}

#[test]
fn request_matches_scan_mppc_faulted() {
    let problem = ProblemParams::new(13, 3);
    let input = pseudo(problem.total_elems());
    let cfg = NodeConfig::new(4, 2, 2, 1).unwrap();
    let request = on(Proposal::Mppc, cfg, problem)
        .pipeline(PipelinePolicy::default())
        .faults(FaultPlan::new(5).evict_gpu(4, 0));
    let out = assert_contract(
        request,
        &input,
        problem,
        ScanKind::Inclusive,
        "Scan-MP-PC W=4 V=2 Y=2 M=1 (2 groups) [faulted]",
    );
    assert!(!out.faults.expect("faulted runs record a report").events.is_empty());
}

#[test]
fn request_matches_scan_mps_multinode_faulted() {
    let problem = ProblemParams::new(14, 1);
    let input = pseudo(problem.total_elems());
    let cfg = NodeConfig::new(4, 4, 1, 2).unwrap();
    let request = on(Proposal::MpsMultinode, cfg, problem)
        .faults(FaultPlan::new(9).degrade_link(Resource::ib(0, 1), 8.0));
    let out = assert_contract(
        request,
        &input,
        problem,
        ScanKind::Inclusive,
        "Scan-MPS multi-node M=2 W=4 [faulted]",
    );
    assert!(out.faults.is_some());
}

/// The exclusive variants route through the same builder.
#[test]
fn request_matches_exclusive_variants() {
    let problem = ProblemParams::new(13, 1);
    let input = pseudo(problem.total_elems());
    assert_contract(
        ScanRequest::new(Add, problem).exclusive(),
        &input,
        problem,
        ScanKind::Exclusive,
        "Scan-SP (exclusive)",
    );
    let cfg = NodeConfig::new(2, 2, 1, 1).unwrap();
    assert_contract(
        on(Proposal::Mps, cfg, problem).exclusive(),
        &input,
        problem,
        ScanKind::Exclusive,
        "Scan-MPS W=2 V=2 Y=1",
    );
}
