//! Plan-cache integration tests: a `ScanRequest` routed through a shared
//! [`PlanCache`] must behave exactly like an uncached one — same data bits,
//! same schedule bits, same errors — for every proposal, with exact
//! hit/miss accounting. See `docs/perf.md` for the keying rules.

use std::sync::Arc;

use multigpu_scan::prelude::*;
use multigpu_scan::scan::ScanError;
use multigpu_scan::PlanCache;

fn pseudo(n: usize) -> Vec<i32> {
    (0..n).map(|i| ((i as i64 * 16807 + 11) % 211) as i32 - 105).collect()
}

fn assert_identical<T: PartialEq + std::fmt::Debug>(
    cold: &multigpu_scan::scan::ScanOutput<T>,
    cached: &multigpu_scan::scan::ScanOutput<T>,
) {
    assert_eq!(cached.data, cold.data, "data must match bit-for-bit");
    assert_eq!(
        cached.report.makespan.to_bits(),
        cold.report.makespan.to_bits(),
        "schedules must match bit-for-bit"
    );
    assert_eq!(cached.report.label, cold.report.label);
    assert_eq!(cached.report.elements, cold.report.elements);
    assert_eq!(
        cached.report.graph.as_ref().map(|g| g.nodes().len()),
        cold.report.graph.as_ref().map(|g| g.nodes().len()),
        "cached graphs keep the cold run's shape"
    );
}

/// Every proposal: the first cached run misses (and matches an uncached
/// run), the second hits (and still matches).
#[test]
fn cached_runs_are_bit_identical_across_all_proposals() {
    let cases: Vec<(Proposal, Option<NodeConfig>, ProblemParams)> = vec![
        (Proposal::Sp, None, ProblemParams::new(13, 2)),
        (Proposal::Mps, Some(NodeConfig::new(4, 4, 1, 1).unwrap()), ProblemParams::new(13, 2)),
        (Proposal::Mppc, Some(NodeConfig::new(4, 2, 2, 1).unwrap()), ProblemParams::new(13, 2)),
        (
            Proposal::MpsMultinode,
            Some(NodeConfig::new(4, 4, 1, 2).unwrap()),
            ProblemParams::new(14, 1),
        ),
        (Proposal::Case1, Some(NodeConfig::new(4, 4, 1, 1).unwrap()), ProblemParams::new(13, 3)),
    ];
    let cache = Arc::new(PlanCache::new());
    for (i, (proposal, cfg, problem)) in cases.iter().enumerate() {
        let input = pseudo(problem.total_elems());
        let build = || {
            let mut req = ScanRequest::new(Add, *problem).proposal(*proposal);
            if let Some(cfg) = cfg {
                req = req.devices(*cfg);
            }
            req
        };
        let cold = build().run(&input).unwrap();
        let miss = build().plan_cache(cache.clone()).run(&input).unwrap();
        let hit = build().plan_cache(cache.clone()).run(&input).unwrap();
        assert_identical(&cold, &miss);
        assert_identical(&cold, &hit);
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.entries),
            (i as u64 + 1, i as u64 + 1, i + 1),
            "one miss then one hit per proposal ({proposal:?})"
        );
    }
    assert_eq!(cache.stats().bypasses, 0);
}

/// The explicit-ids lease path shares the cache machinery.
#[test]
fn device_ids_lease_path_hits_the_cache() {
    let cache = Arc::new(PlanCache::new());
    let problem = ProblemParams::new(12, 2);
    let input = pseudo(problem.total_elems());
    let build = || {
        ScanRequest::new(Add, problem)
            .proposal(Proposal::Mps)
            .device_ids(&[0, 1])
            .plan_cache(cache.clone())
    };
    let cold = ScanRequest::new(Add, problem)
        .proposal(Proposal::Mps)
        .device_ids(&[0, 1])
        .run(&input)
        .unwrap();
    let miss = build().run(&input).unwrap();
    let hit = build().run(&input).unwrap();
    assert_identical(&cold, &miss);
    assert_identical(&cold, &hit);
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
}

/// Same shape, different data: the hit must track the new input, not replay
/// the old output.
#[test]
fn hits_recompute_for_fresh_inputs() {
    let cache = Arc::new(PlanCache::new());
    let problem = ProblemParams::new(12, 3);
    let a = pseudo(problem.total_elems());
    let b: Vec<i32> = a.iter().map(|v| v.wrapping_mul(7) - 3).collect();
    let req = ScanRequest::new(Add, problem).plan_cache(cache.clone());
    req.run(&a).unwrap();
    let hit = req.run(&b).unwrap();
    let cold = ScanRequest::new(Add, problem).run(&b).unwrap();
    assert_identical(&cold, &hit);
    assert_eq!(cache.stats().hits, 1);
}

/// Exclusive semantics key separately from inclusive.
#[test]
fn scan_kind_is_part_of_the_key() {
    let cache = Arc::new(PlanCache::new());
    let problem = ProblemParams::new(12, 2);
    let input = pseudo(problem.total_elems());
    let incl = ScanRequest::new(Add, problem).plan_cache(cache.clone()).run(&input).unwrap();
    let excl =
        ScanRequest::new(Add, problem).exclusive().plan_cache(cache.clone()).run(&input).unwrap();
    assert_ne!(incl.data, excl.data);
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (0, 2, 2));
    // And each replays its own entry.
    let cold = ScanRequest::new(Add, problem).exclusive().run(&input).unwrap();
    let hit =
        ScanRequest::new(Add, problem).exclusive().plan_cache(cache.clone()).run(&input).unwrap();
    assert_identical(&cold, &hit);
}

/// Floating-point runs stay correct through the cache: the self-validation
/// on the cold miss decides whether the shape's plan is reference-exact,
/// and either way a later run is bit-identical to a cold one.
#[test]
fn float_runs_stay_bit_identical_to_cold_runs() {
    let cache = Arc::new(PlanCache::new());
    let problem = ProblemParams::new(12, 2);
    let input: Vec<f32> =
        (0..problem.total_elems()).map(|i| (i % 17) as f32 * 0.25 - 2.0).collect();
    let cold = ScanRequest::new(Add, problem).run(&input).unwrap();
    let first = ScanRequest::new(Add, problem).plan_cache(cache.clone()).run(&input).unwrap();
    let second = ScanRequest::new(Add, problem).plan_cache(cache.clone()).run(&input).unwrap();
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&first.data), bits(&cold.data));
    assert_eq!(bits(&second.data), bits(&cold.data));
    assert_eq!(second.report.makespan.to_bits(), cold.report.makespan.to_bits());
}

/// A cache hit must not paper over a request that would error cold: the
/// validation runs before the lookup.
#[test]
fn invalid_requests_still_error_after_a_warm_cache() {
    let cache = Arc::new(PlanCache::new());
    let problem = ProblemParams::new(12, 1);
    let input = pseudo(problem.total_elems());
    // Warm the Sp default-policy shape.
    ScanRequest::new(Add, problem).plan_cache(cache.clone()).run(&input).unwrap();
    // An explicit policy on Sp is invalid even though its key fields match
    // the cached entry's.
    let err = ScanRequest::new(Add, problem)
        .pipeline(PipelinePolicy::default())
        .plan_cache(cache.clone())
        .run(&input)
        .unwrap_err();
    assert!(matches!(err, ScanError::InvalidConfig(_)));
    // A multi-GPU proposal without devices errors, not hits.
    let err = ScanRequest::new(Add, problem)
        .proposal(Proposal::Mps)
        .plan_cache(cache.clone())
        .run(&input)
        .unwrap_err();
    assert!(matches!(err, ScanError::InvalidConfig(_)));
    assert_eq!(cache.stats().hits, 0);
}

/// Operators never share cache entries: the same shape scanned under
/// `Add` and `Max` must key separately, and each later run must replay
/// its own operator's plan bit-identically. Before the key carried an
/// operator fingerprint this was the plan-cache poisoning bug — a warm
/// `Add` entry would serve a `Max` request.
#[test]
fn operators_never_share_cache_entries() {
    let cache = Arc::new(PlanCache::new());
    let problem = ProblemParams::new(12, 2);
    let input = pseudo(problem.total_elems());
    let sum = ScanRequest::new(Add, problem).plan_cache(cache.clone()).run(&input).unwrap();
    let max = ScanRequest::new(Max, problem).plan_cache(cache.clone()).run(&input).unwrap();
    assert_ne!(sum.data, max.data, "the two operators disagree on this input");
    let stats = cache.stats();
    assert_eq!(
        (stats.hits, stats.misses, stats.entries),
        (0, 2, 2),
        "same shape, different operator: two distinct entries"
    );
    // Each operator hits its own entry and stays bit-identical to cold.
    let cold_max = ScanRequest::new(Max, problem).run(&input).unwrap();
    let hit_max = ScanRequest::new(Max, problem).plan_cache(cache.clone()).run(&input).unwrap();
    assert_identical(&cold_max, &hit_max);
    let cold_sum = ScanRequest::new(Add, problem).run(&input).unwrap();
    let hit_sum = ScanRequest::new(Add, problem).plan_cache(cache.clone()).run(&input).unwrap();
    assert_identical(&cold_sum, &hit_sum);
    assert_eq!(cache.stats().hits, 2);
}

/// Element types key separately even when the same width: an `i32` plan
/// must never be replayed for `f32` data (both 4 bytes — a byte-size key
/// would alias them).
#[test]
fn element_types_with_equal_widths_key_separately() {
    let cache = Arc::new(PlanCache::new());
    let problem = ProblemParams::new(12, 2);
    let ints = pseudo(problem.total_elems());
    let floats: Vec<f32> = ints.iter().map(|&v| v as f32 * 0.5).collect();
    ScanRequest::new(Add, problem).plan_cache(cache.clone()).run(&ints).unwrap();
    ScanRequest::new(Add, problem).plan_cache(cache.clone()).run(&floats).unwrap();
    let stats = cache.stats();
    assert_eq!(
        (stats.hits, stats.misses, stats.entries),
        (0, 2, 2),
        "i32 and f32 are both 4 bytes wide but must not share an entry"
    );
}

/// At the serving layer: two requests with the same shape on the same
/// lease but different operator kinds get distinct plans, launches and
/// checksums — the window's shared cache never crosses the operator
/// boundary.
#[test]
fn operator_kinds_get_distinct_plans_and_checksums_on_one_lease() {
    let mk = |id, op| ServeRequest {
        id,
        arrival: 0.0,
        n: 11,
        g: 1,
        gpus_wanted: 1,
        priority: 0,
        tenant: 0,
        deadline: None,
        op,
    };
    // Two identical shapes, different operators: two launches (the
    // coalescer must not merge across the operator boundary) and two
    // distinct cache entries, zero hits.
    let requests = vec![mk(0, OpKind::AddI32), mk(1, OpKind::MaxF64)];
    let report = Server::new(ServeConfig::new(Policy::Fifo, 4)).run(&requests).unwrap();
    assert_eq!(report.completions.len(), 2);
    assert_eq!(
        report.metrics.launches, 2,
        "different operator kinds must not coalesce into one launch"
    );
    let sums: Vec<_> = report.completions.iter().map(|c| c.checksum).collect();
    assert_ne!(sums[0], sums[1], "identical shapes, different operators, different checksums");
    let stats = report.cache_stats;
    assert_eq!(
        (stats.hits, stats.misses, stats.entries),
        (0, 2, 2),
        "same shape and pool, different operator: two cache entries"
    );
    // Repeat each kind (coalescing off so every request launches alone):
    // each kind hits its own warm entry, never the other's.
    let mut cfg = ServeConfig::new(Policy::Fifo, 4);
    cfg.coalesce = false;
    let warm = vec![
        mk(0, OpKind::AddI32),
        mk(1, OpKind::MaxF64),
        mk(2, OpKind::AddI32),
        mk(3, OpKind::MaxF64),
    ];
    let report = Server::new(cfg).run(&warm).unwrap();
    assert_eq!(report.metrics.launches, 4);
    let stats = report.cache_stats;
    assert_eq!(
        (stats.hits, stats.misses, stats.entries),
        (2, 2, 2),
        "the repeat of each kind hits its own entry"
    );
}

/// Tracing works identically on hits: the replayed graph supports
/// critical-path attribution with the cold run's makespan.
#[test]
fn trace_capture_works_on_cache_hits() {
    let cache = Arc::new(PlanCache::new());
    let problem = ProblemParams::new(12, 2);
    let input = pseudo(problem.total_elems());
    let cfg = NodeConfig::new(2, 2, 1, 1).unwrap();
    let build = || {
        ScanRequest::new(Add, problem)
            .proposal(Proposal::Mps)
            .devices(cfg)
            .trace(TraceOptions::full())
            .plan_cache(cache.clone())
    };
    let cold = build().run(&input).unwrap();
    let hit = build().run(&input).unwrap();
    assert_eq!(cache.stats().hits, 1);
    let cold_trace = cold.trace.expect("tracing requested");
    let hit_trace = hit.trace.expect("tracing survives a hit");
    assert_eq!(
        hit_trace.critical_path().total_seconds().to_bits(),
        cold_trace.critical_path().total_seconds().to_bits()
    );
}

/// Arena-retarget exactness: a plan memoized on one lease serves a hit on
/// a *different* but topologically equivalent lease by retargeting the
/// shared arena graph through the resource remap — and the retargeted
/// run must be bit-identical to cold-building the plan on that second
/// lease directly. Any drift here means the remap table, not the arena,
/// decided the schedule.
#[test]
fn arena_retarget_is_bit_identical_across_equivalent_leases() {
    let cache = Arc::new(PlanCache::new());
    let problem = ProblemParams::new(12, 2);
    let input = pseudo(problem.total_elems());
    let on = |ids: &[usize]| ScanRequest::new(Add, problem).proposal(Proposal::Mps).device_ids(ids);

    // Warm the arena on GPUs [0, 1]; [2, 3] shares the PCIe network and
    // hence the topological shape, so the second run must be a hit.
    let warm = on(&[0, 1]).plan_cache(cache.clone()).run(&input).unwrap();
    let retargeted = on(&[2, 3]).plan_cache(cache.clone()).run(&input).unwrap();
    let stats = cache.stats();
    assert_eq!(
        (stats.hits, stats.misses, stats.entries),
        (1, 1, 1),
        "equivalent leases must share one arena entry"
    );

    // The oracle: the same request cold-built on [2, 3], no cache.
    let cold = on(&[2, 3]).run(&input).unwrap();
    assert_identical(&cold, &retargeted);
    assert_eq!(
        retargeted.report.makespan.to_bits(),
        warm.report.makespan.to_bits(),
        "equal shapes schedule identically"
    );

    // The retargeted graph must claim the *actual* lease's resources —
    // node storage is shared, resource identity is not.
    let graph = retargeted.report.graph.as_ref().expect("lease runs carry a graph");
    let cold_graph = cold.report.graph.as_ref().expect("cold run carries a graph");
    let claims = |g: &multigpu_scan::fabric::ExecGraph| {
        let mut rs: Vec<_> = g.nodes().iter().flat_map(|n| n.resources.iter().copied()).collect();
        rs.sort();
        rs.dedup();
        rs
    };
    assert_eq!(claims(graph), claims(cold_graph), "remap must land on the actual lease");
}

/// Gated-recurrence input over `f64` affine pairs with gates near 1.0 and
/// non-dyadic tokens, so the pipeline's association order rounds
/// differently from the sequential reference.
fn pseudo_gated(n: usize, salt: u64) -> Vec<AffinePair<f64>> {
    (0..n as u64)
        .map(|i| {
            let r = (i ^ salt).wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let gate = 0.999 + 0.001 * ((r >> 20) % 1000) as f64 / 1000.0;
            let token = ((r >> 40) % 257) as f64 / 100.0 - 1.3;
            AffinePair::new(gate, token)
        })
        .collect()
}

fn gated_bits(v: &[AffinePair<f64>]) -> Vec<(u64, u64)> {
    v.iter().map(|p| (p.a.to_bits(), p.b.to_bits())).collect()
}

/// Every row of a problem-major batch scanned sequentially.
fn sequential_reference(problem: ProblemParams, input: &[AffinePair<f64>]) -> Vec<AffinePair<f64>> {
    input
        .chunks(problem.problem_size())
        .flat_map(|row| multigpu_scan::kernels::reference_inclusive(GatedOp, row))
        .collect()
}

/// Schedule replay is data-independent: a gated-recurrence plan built cold
/// on input A replays its schedule for input B on a topologically
/// equivalent lease, even though its simulated float bits are not the
/// reference's. Admitting that hit into a fleet timeline (twice, so the
/// second admission contends with the first) must equal admitting a cold
/// build of B on the actual lease — every node's start/finish bits and
/// resources, the makespan and `gpus_used`. Data consumers are unchanged:
/// `PlannedLaunch::run` on such a plan still simulates cold and returns
/// the cold run's bits, without storing a second plan.
#[test]
fn gated_plans_replay_their_schedule_for_any_input() {
    use multigpu_scan::fabric::{empty_remap, FleetTimeline};
    use multigpu_scan::scan::{scan_on_lease, GpuLease, LeaseRun, ScanKind};

    let device = DeviceSpec::tesla_k80();
    let fabric = Fabric::tsubame_kfc(1);
    let tuple = SplkTuple::kepler_premises(0);
    let policy = PipelinePolicy::default();
    // `(lease A, lease B)`: same width and link classes, different GPU ids
    // and stream (the node's two PCIe networks hold GPUs 0-3 and 4-7).
    let leases: [(&[usize], &[usize]); 3] =
        [(&[0], &[6]), (&[0, 1], &[6, 7]), (&[0, 1, 2, 3], &[4, 5, 6, 7])];
    let cache = PlanCache::new();
    let mut shapes = 0;
    for n in 10..=12 {
        for g in 0..=3 {
            let problem = ProblemParams::new(n, g);
            let a = pseudo_gated(problem.total_elems(), 1);
            let b = pseudo_gated(problem.total_elems(), 2);
            for (ids_a, ids_b) in leases {
                let ctx = format!("n={n} g={g} width={}", ids_a.len());
                let lease_a = GpuLease::new(ids_a.to_vec(), 0).unwrap();
                let lease_b = GpuLease::new(ids_b.to_vec(), 3).unwrap();
                let plan = |lease| {
                    cache.plan::<AffinePair<f64>, GatedOp>(
                        &device,
                        &fabric,
                        lease,
                        problem,
                        tuple,
                        ScanKind::Inclusive,
                        &policy,
                    )
                };
                let built = plan(&lease_a).run(GatedOp, &a).unwrap();
                assert_ne!(
                    gated_bits(&built.data),
                    gated_bits(&sequential_reference(problem, &a)),
                    "{ctx}: the plan must not be reference-exact"
                );
                let cold: LeaseRun<AffinePair<f64>> = scan_on_lease(
                    GatedOp,
                    tuple,
                    &device,
                    &fabric,
                    &lease_b,
                    problem,
                    &b,
                    ScanKind::Inclusive,
                    &policy,
                )
                .unwrap();

                let hit =
                    plan(&lease_b).into_hit().expect("every stored plan replays its schedule");
                assert_eq!(*hit.gpus_used, *cold.gpus_used, "{ctx}");
                let mut replayed = FleetTimeline::new();
                let mut reference = FleetTimeline::new();
                let cold_graph = Arc::new(cold.run.graph.clone());
                for _ in 0..2 {
                    let h = replayed.admit_shared(
                        hit.graph.clone(),
                        hit.remap.clone(),
                        0.0,
                        "r:".into(),
                    );
                    let c =
                        reference.admit_shared(cold_graph.clone(), empty_remap(), 0.0, "r:".into());
                    assert_eq!(h.start.to_bits(), c.start.to_bits(), "{ctx}");
                    assert_eq!(h.finish.to_bits(), c.finish.to_bits(), "{ctx}");
                }
                assert_eq!(replayed.makespan().to_bits(), reference.makespan().to_bits(), "{ctx}");
                let (hs, cs) = (replayed.schedule(), reference.schedule());
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&hs.start), bits(&cs.start), "{ctx}: node starts");
                assert_eq!(bits(&hs.finish), bits(&cs.finish), "{ctx}: node finishes");
                let (hg, cg) = (replayed.graph(), reference.graph());
                assert_eq!(hg.nodes().len(), cg.nodes().len(), "{ctx}");
                for (i, (h, c)) in hg.nodes().iter().zip(cg.nodes()).enumerate() {
                    assert_eq!(h.resources, c.resources, "{ctx}: node {i} resources");
                }

                // A data consumer on the non-exact plan runs cold: the
                // cold run's bits, schedule and GPUs, no new entry.
                let consumed = plan(&lease_b).run(GatedOp, &b).unwrap();
                assert_eq!(gated_bits(&consumed.data), gated_bits(&cold.data), "{ctx}");
                assert_eq!(consumed.run.makespan.to_bits(), cold.run.makespan.to_bits(), "{ctx}");
                assert_eq!(consumed.gpus_used, cold.gpus_used, "{ctx}");
                shapes += 1;
            }
        }
    }
    // Per shape: the build and the data consumer miss, the schedule hits.
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (shapes, 2 * shapes, shapes as usize));
}

/// A cached `ScanRequest` on a gated shape returns data, so it keeps
/// running cold — bit-identical to an uncached run for every input — and
/// stores the shape's plan once.
#[test]
fn cached_gated_requests_stay_bit_identical_to_cold_runs() {
    let cache = Arc::new(PlanCache::new());
    let problem = ProblemParams::new(12, 2);
    let request = || {
        ScanRequest::new(GatedOp, problem)
            .proposal(Proposal::Mps)
            .devices(NodeConfig::new(4, 4, 1, 1).unwrap())
    };
    for salt in [1, 2] {
        let input = pseudo_gated(problem.total_elems(), salt);
        let cold = request().run(&input).unwrap();
        assert_ne!(gated_bits(&cold.data), gated_bits(&sequential_reference(problem, &input)));
        let cached = request().plan_cache(cache.clone()).run(&input).unwrap();
        assert_eq!(gated_bits(&cached.data), gated_bits(&cold.data), "salt {salt}");
        assert_eq!(cached.report.makespan.to_bits(), cold.report.makespan.to_bits());
    }
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (0, 2, 1));
}
