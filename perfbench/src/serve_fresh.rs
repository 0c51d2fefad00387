//! `serve-fresh`: one `Server` on fresh traffic over a warm plan cache.
//!
//! An 8-GPU Tesla K80 pool on the PCIe fabric, EDF with coalescing, and
//! the `WorkloadSpec::default_for` shape mix (n 10–12, g 0–3, bursts of
//! four, one request in four with a deadline) arriving open-loop with a
//! 5 µs mean gap. Set-up builds the server and warms its plan cache with
//! untimed windows. Every timed window then draws a fresh workload seed
//! and renumbers its ids past every id served before, so no response can
//! come from the memo — which the run asserts.

use std::collections::HashMap;
use std::time::Instant;

use scan_serve::{Policy, ServeConfig, ServeRequest, Server, WorkloadSpec};

use crate::alloc::allocs;
use crate::elem::{scan_hash, visit_op, BenchElem, OpVisitor};
use crate::replay::{put_layers, record_layers, Replay, SERVE_LAYERS};
use crate::spans::Tracer;
use crate::stats::{median, peak_rss_mib, reset_peak_rss, Stopwatch};
use crate::window::{check_completions, put_host, put_serve_accounting, HostSeries, SimPool};
use crate::{mix, Mode, Outcome, RunConfig};

/// Untimed warm-up windows in each set-up.
pub const WARMUP_WINDOWS: usize = 6;
/// Set-ups per run (`setup_s` is their median; the last one is kept).
pub const SETUPS: usize = 3;
/// Simulated latency limit for `sim_slo_attain`.
pub const LATENCY_LIMIT_S: f64 = 100e-6;
/// Salt separating warm-up window seeds from timed ones.
const WARMUP_SALT: u64 = 1 << 40;
/// Repetitions of the cold 200-request probe.
const COLD_REPEATS: usize = 5;

fn server(seed: u64) -> Server {
    Server::new(ServeConfig::new(Policy::Edf, seed))
}

/// Window `index`'s requests: a fresh workload seed, ids starting at
/// `first_id`.
pub fn window_requests(seed: u64, index: u64, count: usize, first_id: usize) -> Vec<ServeRequest> {
    let mut requests = WorkloadSpec::default_for(mix(seed, index), count).generate();
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
    if let Err(e) = reset_peak_rss() {
        out.violations.push(format!("resetting the peak resident set: {e}"));
    }

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        let t = Stopwatch::start();
        let srv = server(cfg.seed);
        let warm: Vec<_> = (0..WARMUP_WINDOWS)
            .map(|w| {
                let requests = window_requests(cfg.seed, WARMUP_SALT + w as u64, n, w * n);
                srv.run(&requests).expect("warm-up window serves")
            })
            .collect();
        setup_s.push(t.cpu_s());
        kept = Some((srv, warm));
    }
    let (srv, warm) = kept.expect("at least one set-up");

    let mut replay = Replay::new(Policy::Edf, cfg.seed, 8, 0);
    let no_steals = HashMap::new();
    if traced {
        // Warm the replay's own plan cache on the same windows, untimed.
        let mut off = Tracer::disabled();
        for report in &warm {
            replay.window(&mut off, &report.completions, &no_steals).expect("warm-up replay");
        }
        replay.counts = Default::default();
    }
    drop(warm);

    let mut tracer = if traced { Tracer::new() } else { Tracer::disabled() };
    let span_cost = if traced { Tracer::span_cost() } else { 0.0 };
    let mut sim_counts = replay.counts;
    let mut host = HostSeries::default();
    let mut sim = SimPool::default();
    let mut misses_per_window = Vec::new();
    let mut next_id = WARMUP_WINDOWS * n;
    let mut peak_rss = 0.0;
    let started = Instant::now();
    let mut w = 0usize;
    while w < cfg.sim_windows || started.elapsed().as_secs_f64() < cfg.seconds {
        let requests = window_requests(cfg.seed, w as u64, n, next_id);
        next_id += n;
        out.attempted += n as u64;
        let served_before = srv.response_stats().served;
        let cache_before = srv.cache_stats();
        let allocs_before = allocs();
        let t = Stopwatch::start();
        let result = srv.run(&requests);
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
        if srv.response_stats().served != served_before {
            out.violations.push(format!("window {w} served responses from the memo"));
        }
        let cache = srv.cache_stats();
        let (hits, misses) = (cache.hits - cache_before.hits, cache.misses - cache_before.misses);
        misses_per_window.push(misses);

        out.failed += check_completions(cfg.seed, &report.completions);
        out.failed += (n - report.completions.len()) as u64;

        let completed = report.completions.len() as f64;
        let elements: usize = report.completions.iter().map(|c| c.request.total_elems()).sum();
        host.push("host_rps", completed / cpu_s);
        host.push("host_melem_per_s", elements as f64 / 1e6 / cpu_s);
        host.push("wall_rps", completed / window_s);
        host.push("input.melem", elements as f64 / 1e6);
        host.push("serve.allocs_per_request", window_allocs as f64 / n as f64);
        host.push("plan.hits", hits as f64);
        host.push("plan.misses", misses as f64);
        host.push("plan.bypasses", (cache.bypasses - cache_before.bypasses) as f64);

        let in_sim = w < cfg.sim_windows;
        if in_sim {
            sim.offered += n;
            sim.add_completions(&report.completions, LATENCY_LIMIT_S);
            sim.end_window();
            sim.makespan += report.makespan;
            sim.launches += report.launches;
            sim.gpu_busy.push(report.metrics.gpu_busy_fraction);
            sim.max_queue_depth = sim.max_queue_depth.max(report.metrics.max_queue_depth);
        }

        if traced {
            let mark = tracer.mark();
            let replay_before = replay.cache_stats();
            tracer.span("window.replay", None, |t| {
                replay
                    .window(t, &report.completions, &no_steals)
                    .expect("replay of a served window");
                replay.report(t, &report.completions, &report.metrics, &report.queue_samples);
                t.span("report.trace_export", None, |_| report.trace.chrome_trace_json().len());
            });
            let replayed = replay.cache_stats();
            let replayed =
                (replayed.hits - replay_before.hits, replayed.misses - replay_before.misses);
            if replayed != (hits, misses) {
                out.violations.push(format!(
                    "window {w}: replay plan hits/misses {replayed:?}, server {:?}",
                    (hits, misses)
                ));
            }
            record_layers(&mut host, &tracer.self_times(mark), window_s, &SERVE_LAYERS);
            let replay_span = tracer.spans()[mark];
            let spans = (tracer.mark() - mark) as f64;
            host.push(
                "trace.overhead_frac",
                spans * span_cost / (replay_span.end - replay_span.start),
            );
            if w + 1 == cfg.sim_windows {
                sim_counts = replay.counts;
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
    sim.put_serving(&mut out);
    out.lines
        .push(format!("timed windows: {w} x {n} requests, fresh ids from {}", WARMUP_WINDOWS * n));
    out.lines.push(format!("plan misses per timed window: {misses_per_window:?}"));
    if traced {
        put_layers(&mut out, &host, &sim_counts, cfg.sim_windows, &[]);
        sim.links.put(&mut out);
        out.failed += replay.counts.mismatches;
        if replay.counts.admission_mismatches > 0 {
            out.violations.push(format!(
                "{} replayed launches were admitted differently from the server's",
                replay.counts.admission_mismatches
            ));
        }
        cold_probe(cfg.seed, &mut out);
        out.spans = tracer.to_json_lines();
    }
    out.put("failed_frac", out.failed as f64 / out.attempted.max(1) as f64, "fraction");
    out
}

/// The recorded finding: how much of a cold 200-request window
/// (`bench self`'s cold window) input generation plus the reference scan
/// explain. Each repetition serves the window on a fresh server, then
/// times the same per-member input generation and reference checksum the
/// server performs.
fn cold_probe(seed: u64, out: &mut Outcome) {
    struct Member<'a>(u64, &'a ServeRequest);
    impl OpVisitor for Member<'_> {
        type Out = u64;
        fn visit<T: BenchElem, O: skeletons::ScanOp<T>>(self, op: O) -> u64 {
            let Member(seed, r) = self;
            T::with_buffer(|input| {
                T::fetch_into(seed, r.id, r.total_elems(), input);
                scan_hash(op, input, r.problem().problem_size())
            })
        }
    }
    let requests = WorkloadSpec::default_for(seed, 200).generate();
    let (mut window, mut data) = (Vec::new(), Vec::new());
    for _ in 0..COLD_REPEATS {
        let t = Instant::now();
        let report = server(seed).run(&requests).expect("cold window serves");
        window.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        for c in &report.completions {
            std::hint::black_box(visit_op(c.request.op, Member(seed, &c.request)));
        }
        data.push(t.elapsed().as_secs_f64());
    }
    let elements: usize = requests.iter().map(ServeRequest::total_elems).sum();
    let (window, data) = (median(&window), median(&data));
    out.put("cold200.window_s", window, "s");
    out.put("cold200.input_ref_s", data, "s");
    out.put("cold200.input_ref_share", data / window, "fraction");
    out.lines.push(format!(
        "cold 200-request window (seed {seed}, {:.2} Melem): {:.2} ms, of which input generation + reference scan {:.2} ms ({:.0}%)",
        elements as f64 / 1e6,
        window * 1e3,
        data * 1e3,
        100.0 * data / window
    ));
}
