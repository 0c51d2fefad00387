//! `shard-mixed`: a four-shard `Router` serving the mixed-operator mix
//! faster than its bounded queues can absorb.
//!
//! Four shards of eight K80s, hash placement, stealing on, EDF with a
//! per-tenant SLO miss budget, and shard queues bounded at four. The
//! workload is `WorkloadSpec::mixed_ops_for` with eight tenants and a
//! 2 µs mean gap, so shards overflow: requests are redirected, stolen
//! and, when every queue is full, rejected. The float kinds are never
//! plan-cached, so cold plan builds run inside serving. The router steps
//! its shards on [`ROUTER_THREADS`] thread: on a small host shared with
//! other load, two lockstepped workers wait on whichever core is
//! contended, which made run-to-run spread several times worse (the
//! benchmark's tests check that the thread count changes nothing
//! simulated). Set-up constructs the router and serves one untimed window
//! (router construction alone takes under a microsecond, too little to
//! time steadily).

use std::collections::HashMap;
use std::time::Instant;

use scan_serve::{
    Policy, Router, RouterConfig, ServeRequest, ShardReport, ShardedMetrics, SloConfig,
    WorkloadSpec,
};

use crate::alloc::allocs;
use crate::replay::{put_layers, record_layers, Replay, ReplayCounts, SERVE_LAYERS};
use crate::spans::Tracer;
use crate::stats::{peak_rss_mib, percentile_of, reset_peak_rss, Stopwatch};
use crate::window::{check_completions, put_host, put_serve_accounting, HostSeries, SimPool};
use crate::{mix, Mode, Outcome, RunConfig};

/// Shards in the router.
pub const SHARDS: usize = 4;
/// Worker threads the router steps its shards on.
pub const ROUTER_THREADS: usize = 1;
/// GPUs per shard.
pub const GPUS_PER_SHARD: usize = 8;
/// Bounded per-shard queue depth.
pub const QUEUE_CAPACITY: usize = 4;
/// Mean arrival gap, microseconds.
pub const MEAN_GAP_US: u64 = 2;
/// Tenants in the workload.
pub const TENANTS: u8 = 8;
/// Deadline misses a tenant may accumulate before escalation.
pub const MISS_BUDGET: usize = 2;
/// Simulated latency limit for `sim_slo_attain`.
pub const LATENCY_LIMIT_S: f64 = 200e-6;
/// Set-ups per run (`setup_s` is their median; the last one is kept).
const SETUPS: usize = 3;
/// Salt separating warm-up window seeds from timed ones.
const WARMUP_SALT: u64 = 1 << 40;

/// The router configuration, stepping on `threads` workers.
pub fn router_config(seed: u64, threads: usize) -> RouterConfig {
    let mut config = RouterConfig::new(SHARDS, Policy::Edf, seed);
    config.gpus_per_shard = GPUS_PER_SHARD;
    config.queue_capacity = Some(QUEUE_CAPACITY);
    config.slo = Some(SloConfig { miss_budget: MISS_BUDGET });
    config.threads = threads;
    config
}

/// Window `index`'s requests: a fresh workload seed, ids from `first_id`.
pub fn window_requests(seed: u64, index: u64, count: usize, first_id: usize) -> Vec<ServeRequest> {
    let mut spec = WorkloadSpec::mixed_ops_for(mix(seed, index), count);
    spec.tenants = TENANTS;
    spec.mean_gap_us = MEAN_GAP_US;
    let mut requests = spec.generate();
    for r in &mut requests {
        r.id += first_id;
    }
    requests
}

/// Run the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let n = cfg.requests;
    let traced = cfg.mode == Mode::Traced;
    let threads = cfg.router_threads.clamp(1, crate::threads());
    if let Err(e) = reset_peak_rss() {
        out.violations.push(format!("resetting the peak resident set: {e}"));
    }

    // Set-up: construct the router and serve one untimed window, which
    // warms the shards' plan caches for the integer kinds.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        let t = Stopwatch::start();
        let router = Router::new(router_config(cfg.seed, threads)).expect("valid router");
        let warm = window_requests(cfg.seed, WARMUP_SALT, n, 0);
        let warm = router.run(&warm).expect("warm-up window serves");
        setup_s.push(t.cpu_s());
        kept = Some((router, warm));
    }
    let (router, warm) = kept.expect("at least one set-up");
    let mut cache_before: Vec<_> = warm.shards.iter().map(|s| s.report.cache_stats).collect();

    let mut replays: Vec<Replay> =
        (0..SHARDS).map(|s| Replay::new(Policy::Edf, cfg.seed, GPUS_PER_SHARD, s)).collect();
    if traced {
        // Warm the replays' own plan caches on the same window, untimed.
        let mut off = Tracer::disabled();
        for (shard, replay) in warm.shards.iter().zip(&mut replays) {
            let steals = steal_victims(shard, &mut out.violations);
            replay.window(&mut off, &shard.report.completions, &steals).expect("warm-up replay");
            replay.counts = Default::default();
        }
    }
    drop(warm);
    let mut tracer = if traced { Tracer::new() } else { Tracer::disabled() };
    let span_cost = if traced { Tracer::span_cost() } else { 0.0 };
    let mut sim_counts = vec![ReplayCounts::default(); SHARDS];
    let mut host = HostSeries::default();
    let mut sim = SimPool::default();
    let mut shard_latencies: Vec<Vec<f64>> = vec![Vec::new(); SHARDS];
    let (mut steals, mut redirects, mut rejections, mut rejected_all) = (0, 0, 0, 0u64);
    let mut peak_rss = 0.0;
    let started = Instant::now();
    let mut w = 0usize;
    while w < cfg.sim_windows || started.elapsed().as_secs_f64() < cfg.seconds {
        let requests = window_requests(cfg.seed, w as u64, n, (w + 1) * n);
        out.attempted += n as u64;
        let allocs_before = allocs();
        let t = Stopwatch::start();
        let result = router.run(&requests);
        let (window_s, cpu_s) = (t.wall_s(), t.cpu_s());
        let window_allocs = allocs() - allocs_before;
        let report = match result {
            Ok(report) => report,
            Err(e) => {
                out.failed += n as u64;
                out.violations.push(format!("window {w}: {e}"));
                w += 1;
                continue;
            }
        };
        let completions = report.completions();
        let completed = completions.len();
        let rejected = report.rejections.len();
        rejected_all += rejected as u64;
        out.failed += check_completions(cfg.seed, completions.iter().copied());
        out.failed += (n - completed - rejected) as u64;

        let elements: usize = completions.iter().map(|c| c.request.total_elems()).sum();
        host.push("host_rps", completed as f64 / cpu_s);
        host.push("host_melem_per_s", elements as f64 / 1e6 / cpu_s);
        host.push("wall_rps", completed as f64 / window_s);
        host.push("router.run_s", window_s);
        host.push("input.melem", elements as f64 / 1e6);
        host.push("serve.allocs_per_request", window_allocs as f64 / n as f64);
        let (mut hits, mut misses, mut bypasses) = (0, 0, 0);
        let mut shard_deltas = Vec::with_capacity(SHARDS);
        for (shard, before) in report.shards.iter().zip(&mut cache_before) {
            let now = shard.report.cache_stats;
            hits += now.hits - before.hits;
            misses += now.misses - before.misses;
            bypasses += now.bypasses - before.bypasses;
            shard_deltas.push((now.hits - before.hits, now.misses - before.misses));
            *before = now;
        }
        host.push("plan.hits", hits as f64);
        host.push("plan.misses", misses as f64);
        host.push("plan.bypasses", bypasses as f64);

        let in_sim = w < cfg.sim_windows;
        if in_sim {
            sim.offered += n;
            sim.add_completions(completions.iter().copied(), LATENCY_LIMIT_S);
            sim.end_window();
            sim.makespan += report.makespan;
            for shard in &report.shards {
                let m = &shard.report.metrics;
                sim.launches += m.launches;
                sim.gpu_busy.push(m.gpu_busy_fraction);
                sim.max_queue_depth = sim.max_queue_depth.max(m.max_queue_depth);
                shard_latencies[shard.shard]
                    .extend(shard.report.completions.iter().map(|c| c.latency()));
            }
            steals += report.metrics.steals;
            redirects += report.metrics.redirected;
            rejections += report.metrics.rejected;
        }

        if traced {
            let mark = tracer.mark();
            let steals: Vec<_> =
                report.shards.iter().map(|s| steal_victims(s, &mut out.violations)).collect();
            tracer.span("window.replay", None, |t| {
                for (((shard, replay), steals), served) in
                    report.shards.iter().zip(&mut replays).zip(&steals).zip(&shard_deltas)
                {
                    let r = &shard.report;
                    let before = replay.cache_stats();
                    replay.window(t, &r.completions, steals).expect("replay of a served shard");
                    let after = replay.cache_stats();
                    let replayed = (after.hits - before.hits, after.misses - before.misses);
                    if replayed != *served {
                        out.violations.push(format!(
                            "window {w} shard {}: replay plan hits/misses {replayed:?}, server {served:?}",
                            shard.shard
                        ));
                    }
                    replay.report(t, &r.completions, &r.metrics, &r.queue_samples);
                }
                t.span("report.metrics", None, |_| {
                    let parts: Vec<&[scan_serve::Completion]> =
                        report.shards.iter().map(|s| s.report.completions.as_slice()).collect();
                    ShardedMetrics::compute(
                        Policy::Edf,
                        report.metrics.placement,
                        &parts,
                        report.metrics.launches,
                        report.metrics.steals,
                        report.metrics.rejected,
                        report.metrics.redirected,
                        report.makespan,
                    )
                });
                t.span("report.trace_export", None, |_| report.trace.chrome_trace_json().len());
            });
            record_layers(&mut host, &tracer.self_times(mark), window_s, &SERVE_LAYERS);
            let replay_span = tracer.spans()[mark];
            let spans = (tracer.mark() - mark) as f64;
            host.push(
                "trace.overhead_frac",
                spans * span_cost / (replay_span.end - replay_span.start),
            );
            if w + 1 == cfg.sim_windows {
                for (total, r) in sim_counts.iter_mut().zip(&replays) {
                    *total = r.counts;
                }
            }
            if in_sim {
                sim.links.add_utilization(&report.trace.utilization());
                sim.links.add_critical_path(&report.trace.critical_path());
            }
        }
        if w + 1 == cfg.sim_windows {
            // Peak memory over set-up and the fixed simulated windows: the
            // same work on every run, however fast the host.
            peak_rss = peak_rss_mib();
        }
        w += 1;
    }

    put_host(&mut out, &host, &setup_s);
    out.put("peak_rss_mib", peak_rss, "MiB");
    sim.put_end_to_end(&mut out);
    put_serve_accounting(&mut out, &host, cfg.sim_windows);
    out.put("router.run_s", host.median("router.run_s"), "s");
    out.put("router.steals", steals as f64, "count");
    out.put("router.redirects", redirects as f64, "count");
    out.put("router.rejections", rejections as f64, "count");
    let shard_p99 = shard_latencies.iter_mut().map(|l| percentile_of(l, 99)).fold(0.0, f64::max);
    out.put("router.shard_p99_max_s", shard_p99, "s");
    let sizes: Vec<f64> = shard_latencies.iter().map(|l| l.len() as f64).collect();
    let mean = sizes.iter().sum::<f64>() / SHARDS as f64;
    out.put(
        "router.shard_imbalance",
        sizes.iter().fold(0.0, |a: f64, &b| a.max(b)) / mean.max(1.0),
        "ratio",
    );
    sim.put_serving(&mut out);
    out.lines.push(format!(
        "timed windows: {w} x {n} requests on {SHARDS} shards, {threads} router thread(s); \
         {rejected_all} rejections over all windows"
    ));
    if traced {
        let mut counts = ReplayCounts::default();
        for c in &sim_counts {
            counts.merge(c);
        }
        put_layers(&mut out, &host, &counts, cfg.sim_windows, &[]);
        sim.links.put(&mut out);
        out.failed += replays.iter().map(|r| r.counts.mismatches).sum::<u64>();
        let diverged: u64 = replays.iter().map(|r| r.counts.admission_mismatches).sum();
        if diverged > 0 {
            out.violations.push(format!(
                "{diverged} replayed launches were admitted differently from the server's"
            ));
        }
        out.spans = tracer.to_json_lines();
    }
    let failed_frac = (out.failed + rejected_all) as f64 / out.attempted.max(1) as f64;
    out.put("failed_frac", failed_frac, "fraction");
    out
}

/// The victim shard of every request `shard` stole, read from the steal-in
/// transfers in the shard's trace (labelled `r<id><s<victim>:steal-in`).
/// A stolen request without one is recorded in `violations`.
fn steal_victims(shard: &ShardReport, violations: &mut Vec<String>) -> HashMap<usize, usize> {
    let victims: HashMap<usize, usize> = shard
        .report
        .trace
        .graph()
        .nodes()
        .iter()
        .filter_map(|node| {
            let label = node.label.strip_suffix(":steal-in")?.strip_prefix('r')?;
            let (id, victim) = label.split_once("<s")?;
            Some((id.parse().ok()?, victim.parse().ok()?))
        })
        .collect();
    for id in &shard.stolen_ids {
        if !victims.contains_key(id) {
            violations
                .push(format!("shard {}: no steal-in transfer for request {id}", shard.shard));
        }
    }
    victims
}
