//! Property/differential harness for the sharded serving router:
//!
//! * same seed + same shard count ⇒ bit-identical [`ShardedReport`];
//! * a 1-shard router is **byte-equal** to the unsharded [`Server::run`]
//!   (both drive the same shard-state stepping code);
//! * every response checksum equals the isolated reference run of that
//!   request alone, under all three placement policies;
//! * work stealing never violates `OpKind` coalescing compatibility —
//!   stolen requests always launch solo, and every coalesced launch is
//!   kind-uniform;
//! * SLO escalation reorders only *when* requests run, never *what* they
//!   compute.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use multigpu_scan::prelude::*;
use multigpu_scan::serve::{Completion, ShardedReport};

fn mixed_workload(seed: u64, count: usize) -> Vec<ServeRequest> {
    let mut spec = WorkloadSpec::mixed_ops_for(seed, count);
    spec.n_range = (10, 11);
    spec.g_range = (0, 2);
    spec.tenants = 4;
    spec.generate()
}

/// Serve each request alone through a fresh unsharded server: the
/// isolated reference the sharded checksums must reproduce bit-exactly.
/// (A solo window runs the request through the same functional pipeline
/// the differential tests pin against the sequential CPU scan.)
fn isolated_checksums(requests: &[ServeRequest], input_seed: u64) -> BTreeMap<usize, u64> {
    requests
        .iter()
        .map(|r| {
            let server = Server::new(ServeConfig::new(Policy::Fifo, input_seed));
            let report = server.run(std::slice::from_ref(r)).unwrap();
            assert_eq!(report.completions.len(), 1);
            (r.id, report.completions[0].checksum)
        })
        .collect()
}

/// Render every bit of a sharded report — completions, per-shard steal
/// and redirect counters, rollup metrics JSON, and the merged Chrome
/// trace — so equality is byte-level, not field-by-field.
fn deep_snapshot(report: &ShardedReport) -> String {
    let mut out = String::new();
    for s in &report.shards {
        writeln!(
            out,
            "shard {} launches={} makespan={:016x} steals_in={} steals_out={} \
             redirects_in={} stolen_ids={:?}",
            s.shard,
            s.report.launches,
            s.report.makespan.to_bits(),
            s.steals_in,
            s.steals_out,
            s.redirects_in,
            s.stolen_ids,
        )
        .unwrap();
        for c in &s.report.completions {
            writeln!(
                out,
                "  request {} dispatched={:016x} started={:016x} finished={:016x} \
                 group={} gpus={:?} checksum={:016x}",
                c.request.id,
                c.dispatched.to_bits(),
                c.started.to_bits(),
                c.finished.to_bits(),
                c.coalesced,
                c.gpus,
                c.checksum,
            )
            .unwrap();
        }
        for &(t, depth) in &s.report.queue_samples {
            writeln!(out, "  queue {:016x} {}", t.to_bits(), depth).unwrap();
        }
    }
    for r in &report.rejections {
        writeln!(out, "reject {} at={:016x} shard={}", r.request.id, r.time.to_bits(), r.shard)
            .unwrap();
    }
    writeln!(out, "makespan={:016x}", report.makespan.to_bits()).unwrap();
    out.push_str(&report.metrics.to_json());
    out.push_str(&report.trace.chrome_trace_json());
    out
}

#[test]
fn same_seed_same_shards_is_bit_identical() {
    let requests = mixed_workload(7, 40);
    for policy in Policy::all() {
        let mut config = RouterConfig::new(3, policy, 7);
        config.queue_capacity = Some(16);
        config.slo = Some(SloConfig { miss_budget: 1 });
        let router = Router::new(config).unwrap();
        let a = deep_snapshot(&router.run(&requests).unwrap());
        let b = deep_snapshot(&router.run(&requests).unwrap());
        assert_eq!(a, b, "policy {policy:?}: same seed + shard count must be byte-identical");
    }
}

#[test]
fn one_shard_router_is_byte_equal_to_unsharded_server() {
    let requests = mixed_workload(7, 40);
    for policy in Policy::all() {
        let unsharded = Server::new(ServeConfig::new(policy, 7)).run(&requests).unwrap();
        let router = Router::new(RouterConfig::new(1, policy, 7)).unwrap();
        let sharded = router.run(&requests).unwrap();

        assert!(sharded.rejections.is_empty());
        assert_eq!(sharded.shards.len(), 1);
        let shard = &sharded.shards[0];
        assert_eq!(shard.steals_in, 0, "a 1-shard fleet has nobody to steal from");
        assert_eq!(shard.redirects_in, 0);
        let report = &shard.report;

        assert_eq!(report.launches, unsharded.launches, "{policy:?}");
        assert_eq!(report.makespan.to_bits(), unsharded.makespan.to_bits(), "{policy:?}");
        assert_eq!(report.completions.len(), unsharded.completions.len(), "{policy:?}");
        for (a, b) in report.completions.iter().zip(&unsharded.completions) {
            assert_eq!(a.request, b.request, "{policy:?}");
            assert_eq!(a.dispatched.to_bits(), b.dispatched.to_bits(), "{policy:?}");
            assert_eq!(a.started.to_bits(), b.started.to_bits(), "{policy:?}");
            assert_eq!(a.finished.to_bits(), b.finished.to_bits(), "{policy:?}");
            assert_eq!(a.coalesced, b.coalesced, "{policy:?}");
            assert_eq!(&a.gpus[..], &b.gpus[..], "{policy:?}");
            assert_eq!(a.checksum, b.checksum, "{policy:?}");
        }
        let same_samples = report.queue_samples.len() == unsharded.queue_samples.len()
            && report
                .queue_samples
                .iter()
                .zip(&unsharded.queue_samples)
                .all(|(&(ta, da), &(tb, db))| ta.to_bits() == tb.to_bits() && da == db);
        assert!(same_samples, "{policy:?}: queue-depth samples diverge");
        assert_eq!(report.metrics, unsharded.metrics, "{policy:?}");
        // The shard's own trace (before the `s0:` merge prefix) is the
        // unsharded trace, byte for byte.
        assert_eq!(
            report.trace.chrome_trace_json(),
            unsharded.trace.chrome_trace_json(),
            "{policy:?}: shard trace diverges from the unsharded fleet trace"
        );
    }
}

#[test]
fn every_placement_matches_the_isolated_reference() {
    let requests = mixed_workload(13, 32);
    let reference = isolated_checksums(&requests, 13);
    for placement in Placement::all() {
        for shards in [2usize, 3] {
            let mut config = RouterConfig::new(shards, Policy::Fifo, 13);
            config.placement = placement;
            let report = Router::new(config).unwrap().run(&requests).unwrap();
            let completions = report.completions();
            assert_eq!(completions.len(), requests.len(), "{placement} x{shards}");
            for c in completions {
                assert_eq!(
                    c.checksum, reference[&c.request.id],
                    "{placement} x{shards}: request {} diverges from its isolated run",
                    c.request.id
                );
            }
        }
    }
}

/// A steal-heavy scenario: locality placement pins 12 add-scans to shard
/// 0 and only 2 max-scans to shard 1, each shard owning a single GPU, so
/// shard 1 drains its own queue and then steals shard 0's backlog.
fn steal_workload() -> Vec<ServeRequest> {
    let mut requests = Vec::new();
    for id in 0..14usize {
        let op = if id < 12 { OpKind::AddI32 } else { OpKind::MaxF64 };
        // Alternate n so same-kind neighbours don't all coalesce away.
        let n = 10 + (id % 2) as u32;
        requests.push(ServeRequest {
            id,
            arrival: 0.0,
            n,
            g: 0,
            gpus_wanted: 1,
            priority: 0,
            tenant: 0,
            deadline: None,
            op,
        });
    }
    requests
}

#[test]
fn work_stealing_never_violates_coalescing_compatibility() {
    let requests = steal_workload();
    let reference = isolated_checksums(&requests, 99);
    let mut config = RouterConfig::new(2, Policy::Fifo, 99);
    config.gpus_per_shard = 1;
    config.placement = Placement::LocalityByOp;
    let report = Router::new(config).unwrap().run(&requests).unwrap();

    let steals: usize = report.shards.iter().map(|s| s.steals_in).sum();
    assert!(steals > 0, "the imbalanced window must provoke at least one steal");
    assert_eq!(report.metrics.steals, steals);
    assert_eq!(report.completions().len(), requests.len(), "every request served exactly once");

    for shard in &report.shards {
        // Group completions into launches: members of one coalesced
        // launch share the same `Arc<[usize]>` GPU set and the same
        // admission times. (The Arc alone no longer identifies a launch:
        // plan-cache identity hits share the cached plan's allocation
        // across launches.)
        type LaunchKey<'a> = (&'a Arc<[usize]>, u64, u64, u64);
        let mut launches: Vec<(LaunchKey, Vec<&multigpu_scan::serve::Completion>)> = Vec::new();
        for c in &shard.report.completions {
            let key: LaunchKey =
                (&c.gpus, c.dispatched.to_bits(), c.started.to_bits(), c.finished.to_bits());
            match launches.iter_mut().find(|((gpus, d, s, f), _)| {
                Arc::ptr_eq(gpus, key.0) && (*d, *s, *f) == (key.1, key.2, key.3)
            }) {
                Some((_, members)) => members.push(c),
                None => launches.push((key, vec![c])),
            }
        }
        for (_, members) in &launches {
            let kind = members[0].request.op;
            assert!(
                members.iter().all(|c| c.request.op == kind),
                "shard {}: a coalesced launch mixes operator kinds",
                shard.shard
            );
            assert!(
                members.iter().all(|c| c.coalesced == members.len()),
                "shard {}: coalesced count disagrees with launch membership",
                shard.shard
            );
        }
        for c in &shard.report.completions {
            assert_eq!(c.checksum, reference[&c.request.id], "request {}", c.request.id);
            if shard.stolen_ids.contains(&c.request.id) {
                assert_eq!(
                    c.coalesced, 1,
                    "stolen request {} must launch solo, never coalesced into local work",
                    c.request.id
                );
            }
        }
    }
}

/// SLO escalation: once tenant 1 blows its miss budget, its queued
/// deadline-carrying request jumps the whole FIFO backlog. The escalated
/// request finishes strictly earlier than without the SLO — and every
/// checksum is identical in both runs (scheduling changes *when*, never
/// *what*).
#[test]
fn slo_escalation_preempts_the_queue_but_not_the_answers() {
    let mut requests = Vec::new();
    // Tenant 1's first request: an impossible deadline, so the tenant is
    // over a zero-miss budget the moment it retires.
    requests.push(ServeRequest {
        id: 0,
        arrival: 0.0,
        n: 10,
        g: 0,
        gpus_wanted: 1,
        priority: 0,
        tenant: 1,
        deadline: Some(1e-9),
        op: OpKind::AddI32,
    });
    // A tenant-0 backlog that queues behind it on the single GPU.
    for id in 1..6usize {
        requests.push(ServeRequest {
            id,
            arrival: 1e-6 + id as f64 * 1e-8,
            n: 11,
            g: 0,
            gpus_wanted: 1,
            priority: 0,
            tenant: 0,
            deadline: None,
            op: OpKind::AddI32,
        });
    }
    // Tenant 1 again, with a generous deadline: FIFO would serve it last.
    requests.push(ServeRequest {
        id: 6,
        arrival: 2e-6,
        n: 10,
        g: 0,
        gpus_wanted: 1,
        priority: 0,
        tenant: 1,
        deadline: Some(1.0),
        op: OpKind::AddI32,
    });
    requests.sort_by(|a, b| a.arrival.partial_cmp(&b.arrival).unwrap());

    let run = |slo: Option<SloConfig>| {
        let mut config = RouterConfig::new(1, Policy::Fifo, 5);
        config.gpus_per_shard = 1;
        config.slo = slo;
        Router::new(config).unwrap().run(&requests).unwrap()
    };
    let with_slo = run(Some(SloConfig { miss_budget: 0 }));
    let without = run(None);

    let finish = |report: &ShardedReport, id: usize| {
        report.shards[0]
            .report
            .completions
            .iter()
            .find(|c| c.request.id == id)
            .unwrap_or_else(|| panic!("request {id} completed"))
            .finished
    };
    assert!(
        finish(&with_slo, 6) < finish(&without, 6),
        "escalation must finish tenant 1's request strictly earlier"
    );
    // With the SLO, request 6 overtakes the tenant-0 backlog; without it,
    // FIFO serves the backlog first.
    assert!(finish(&with_slo, 6) < finish(&with_slo, 5), "escalated past the backlog");
    assert!(finish(&without, 6) > finish(&without, 5), "FIFO order without the SLO");
    assert!(
        with_slo.metrics.deadline_misses >= 1,
        "the sacrificial first request must actually miss"
    );
    // Scheduling changed; the answers did not.
    for id in 0..requests.len() {
        let a = with_slo.shards[0].report.completions.iter().find(|c| c.request.id == id);
        let b = without.shards[0].report.completions.iter().find(|c| c.request.id == id);
        assert_eq!(a.unwrap().checksum, b.unwrap().checksum, "request {id}");
    }
}

/// A mixed-generation pool must never coalesce (or even launch) one batch
/// across device models: a batch is planned against a single `DeviceSpec`,
/// so a grant spanning generations would cost one model's timings on the
/// other's hardware. With `v100:4 + a100:4` the pool assigns GPUs 0–3 to
/// the V100s and 4–7 to the A100s, and every launch's GPU set must stay
/// on one side of that boundary — while the answers still match the
/// isolated (homogeneous K80) reference bit-for-bit, because scheduling
/// hardware changes *when*, never *what*.
#[test]
fn mixed_generation_pool_never_spans_models_in_one_launch() {
    let requests = mixed_workload(21, 40);
    let reference = isolated_checksums(&requests, 21);

    let mut config = ServeConfig::new(Policy::Fifo, 21);
    config.devices = vec![(DevicePreset::V100, 4), (DevicePreset::A100, 4)];
    config.fabric = FabricPreset::Dgx2;
    let report = Server::new(config).run(&requests).unwrap();
    assert_eq!(report.completions.len(), requests.len());

    // Group completions into launches (same idiom as the stealing test).
    type LaunchKey<'a> = (&'a Arc<[usize]>, u64, u64, u64);
    let mut launches: Vec<(LaunchKey, Vec<&multigpu_scan::serve::Completion>)> = Vec::new();
    for c in &report.completions {
        let key: LaunchKey =
            (&c.gpus, c.dispatched.to_bits(), c.started.to_bits(), c.finished.to_bits());
        match launches.iter_mut().find(|((gpus, d, s, f), _)| {
            Arc::ptr_eq(gpus, key.0) && (*d, *s, *f) == (key.1, key.2, key.3)
        }) {
            Some((_, members)) => members.push(c),
            None => launches.push((key, vec![c])),
        }
    }

    let mut v100_launches = 0usize;
    let mut a100_launches = 0usize;
    for ((gpus, ..), members) in &launches {
        let on_v100 = gpus.iter().all(|&g| g < 4);
        let on_a100 = gpus.iter().all(|&g| (4..8).contains(&g));
        assert!(on_v100 || on_a100, "launch over GPUs {gpus:?} spans both device generations");
        if on_v100 {
            v100_launches += 1;
        } else {
            a100_launches += 1;
        }
        let kind = members[0].request.op;
        assert!(members.iter().all(|c| c.request.op == kind), "kind-uniform launches");
    }
    assert!(a100_launches > 0, "the faster generation must serve some of the window");
    assert!(v100_launches > 0, "the backlog must spill onto the slower generation");

    for c in &report.completions {
        assert_eq!(c.checksum, reference[&c.request.id], "request {}", c.request.id);
    }

    // The rollup attributes busy time to both generations.
    let classes: Vec<&str> = report.metrics.class_busy.iter().map(|&(c, _)| c).collect();
    assert_eq!(classes, ["v100", "a100"], "per-generation busy fractions in the rollup");
    for &(class, busy) in &report.metrics.class_busy {
        assert!((0.0..=1.0).contains(&busy), "{class} busy fraction {busy} out of range");
    }
}

/// The tentpole differential: incremental fleet admission (per-resource
/// availability index with lazy pruning) must be **bit-equal** to the
/// retained O(n²) reference list scheduler — same completion order, same
/// checksums, same finish-time bits, same makespan bits — across seeds ×
/// queue policies × shard counts. `reference_timings` is the only knob
/// flipped, so any divergence is the admission index's fault alone.
#[test]
fn incremental_admission_matches_reference_engine() {
    for seed in [3u64, 11] {
        let requests = mixed_workload(seed, 40);
        for policy in [Policy::Fifo, Policy::Sjf, Policy::Edf] {
            for shards in [1usize, 2, 4] {
                let run = |reference: bool| {
                    let mut config = RouterConfig::new(shards, policy, seed);
                    config.reference_timings = reference;
                    Router::new(config).unwrap().run(&requests).unwrap()
                };
                let fast = run(false);
                let reference = run(true);
                let ctx = format!("seed {seed}, {policy:?}, {shards} shard(s)");

                assert_eq!(
                    fast.makespan.to_bits(),
                    reference.makespan.to_bits(),
                    "{ctx}: fleet makespan"
                );
                assert_eq!(fast.rejections.len(), reference.rejections.len(), "{ctx}");
                let a = fast.completions();
                let b = reference.completions();
                assert_eq!(a.len(), b.len(), "{ctx}: completion count");
                assert_eq!(a.len(), requests.len(), "{ctx}: every request served");
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!(x.request.id, y.request.id, "{ctx}: completion order");
                    assert_eq!(x.checksum, y.checksum, "{ctx}: request {}", x.request.id);
                    assert_eq!(
                        x.finished.to_bits(),
                        y.finished.to_bits(),
                        "{ctx}: request {} finish time",
                        x.request.id
                    );
                }
            }
        }
    }
}

/// The plan-cache differential on a window shaped like the `shard-mixed`
/// benchmark: 4 shards × 8 GPUs, EDF, hash placement with stealing, an
/// SLO miss budget of 2, queues bounded at 4 (so requests are redirected
/// and rejected) and `mixed_ops_for` with 8 tenants at a 2 µs gap. Two
/// windows run on one router, the second repeating the first's requests.
/// With the plan cache on and off, every request's checksum, output,
/// dispatch/start/finish bits and GPUs agree, as do the rejection, steal
/// and redirect sets, the rollup metrics and the exported trace bytes. The
/// second window replays every plan's schedule — the gated recurrence's
/// included, although its simulated float bits are not the reference's.
#[test]
fn plan_cache_on_and_off_serve_identical_shard_mixed_windows() {
    let mut spec = WorkloadSpec::mixed_ops_for(7, 800);
    spec.tenants = 8;
    spec.mean_gap_us = 2;
    let requests = spec.generate();
    let router = |plan_cache: bool| {
        let mut config = RouterConfig::new(4, Policy::Edf, 7);
        config.gpus_per_shard = 8;
        config.queue_capacity = Some(4);
        config.slo = Some(SloConfig { miss_budget: 2 });
        config.keep_outputs = true;
        config.plan_cache = plan_cache;
        Router::new(config).unwrap()
    };
    let (cached, cold) = (router(true), router(false));
    let misses =
        |r: &ShardedReport| -> u64 { r.shards.iter().map(|s| s.report.cache_stats.misses).sum() };
    let mut first_misses = 0;
    for window in 0..2 {
        let (a, b) = (cached.run(&requests).unwrap(), cold.run(&requests).unwrap());
        let ctx = format!("window {window}");
        let by_id = |r: &ShardedReport| -> BTreeMap<usize, (usize, Completion)> {
            r.shards
                .iter()
                .flat_map(|s| {
                    s.report.completions.iter().map(move |c| (c.request.id, (s.shard, c.clone())))
                })
                .collect()
        };
        let (ca, cb) = (by_id(&a), by_id(&b));
        assert_eq!(ca.keys().collect::<Vec<_>>(), cb.keys().collect::<Vec<_>>(), "{ctx}");
        for ((shard_a, x), (shard_b, y)) in ca.values().zip(cb.values()) {
            let id = x.request.id;
            assert_eq!(shard_a, shard_b, "{ctx}: request {id} shard");
            assert_eq!(x.checksum, y.checksum, "{ctx}: request {id}");
            assert!(x.output.is_some(), "{ctx}: request {id} keeps its output");
            assert_eq!(x.output, y.output, "{ctx}: request {id}");
            assert_eq!(x.dispatched.to_bits(), y.dispatched.to_bits(), "{ctx}: request {id}");
            assert_eq!(x.started.to_bits(), y.started.to_bits(), "{ctx}: request {id}");
            assert_eq!(x.finished.to_bits(), y.finished.to_bits(), "{ctx}: request {id}");
            assert_eq!(x.gpus, y.gpus, "{ctx}: request {id}");
        }
        let rejected = |r: &ShardedReport| -> Vec<(usize, usize, u64)> {
            r.rejections.iter().map(|j| (j.request.id, j.shard, j.time.to_bits())).collect()
        };
        let moved = |r: &ShardedReport| -> Vec<(Vec<usize>, usize, usize, usize)> {
            r.shards
                .iter()
                .map(|s| (s.stolen_ids.clone(), s.steals_in, s.steals_out, s.redirects_in))
                .collect()
        };
        assert_eq!(rejected(&a), rejected(&b), "{ctx}: rejections");
        assert_eq!(moved(&a), moved(&b), "{ctx}: steals and redirects");
        assert!(!a.rejections.is_empty(), "{ctx}: the bounded queues must reject");
        assert!(a.shards.iter().any(|s| s.redirects_in > 0), "{ctx}: redirects in play");
        assert!(a.shards.iter().any(|s| s.steals_in > 0), "{ctx}: steals in play");
        assert_eq!(a.metrics.to_json(), b.metrics.to_json(), "{ctx}: rollup metrics");
        assert!(
            a.trace.chrome_trace_json() == b.trace.chrome_trace_json(),
            "{ctx}: exported trace bytes"
        );
        assert!(
            ca.values().any(|(_, c)| c.request.op == OpKind::GatedF64),
            "{ctx}: gated launches served"
        );
        if window == 0 {
            first_misses = misses(&a);
        } else {
            assert_eq!(
                misses(&a),
                first_misses,
                "the second window's launches, gated included, all hit"
            );
        }
    }
}
