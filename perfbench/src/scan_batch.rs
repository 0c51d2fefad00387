//! `scan-batch`: the paper's batch scan through `ScanRequest::run`, with
//! no serving layer and no plan cache.
//!
//! Six configurations from the paper's evaluation — Scan-SP, Scan-MPS at
//! W = 2, 4 and 8 (W = 8 spans both PCIe networks, so its host-staged
//! exchange collapses at small n), Scan-MP-PC, and multi-node Scan-MPS
//! at M = 2, W = 4 — each at a small, a middle and a large problem size
//! over a fixed total of 2^20 elements (G = 2^(20 − n)). The seed draws
//! each size from its class and the submission gaps, and every scan gets
//! a freshly generated input. Outputs are checked row by row against
//! `baselines::cpu_reference::sequential_inclusive`.
//!
//! `sim_melem_per_s` is the paper's metric: elements over simulated
//! makespan, each scan on an idle cluster. Latencies add a submission
//! view: each configuration's three scans of a window arrive with seeded
//! gaps at one dedicated cluster (`FleetTimeline::admit_shared`), and a
//! scan's latency runs from its arrival to its finish.

use std::sync::Arc;
use std::time::Instant;

use baselines::cpu_reference::sequential_inclusive;
use gpu_sim::DeviceSpec;
use interconnect::{empty_remap, ExecGraph, FleetTimeline, Trace};
use scan_core::{premises, NodeConfig, ProblemParams, Proposal, ScanRequest};
use skeletons::Add;

use crate::alloc::allocs;
use crate::replay::{count_graph, put_layers, record_layers, ReplayCounts};
use crate::spans::Tracer;
use crate::stats::{peak_rss_mib, percentile_of, reset_peak_rss, Stopwatch};
use crate::window::{put_host, HostSeries, SimPool};
use crate::{mix, Mode, Outcome, RunConfig};

/// log2 of the elements every scan processes.
pub const TOTAL_LOG2: u32 = 20;
/// Small, middle and large problem-size classes (log2 n); the seed picks
/// one size from each per configuration and window.
pub const SIZE_CLASSES: [[u32; 2]; 3] = [[14, 15], [16, 17], [19, 20]];
/// Mean submission gap within one configuration's window, microseconds.
pub const MEAN_GAP_US: u64 = 10;
/// Simulated latency limit for `sim_slo_attain`.
pub const LATENCY_LIMIT_S: f64 = 500e-6;

/// One evaluated configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Display name.
    pub name: &'static str,
    /// Distribution proposal.
    pub proposal: Proposal,
    /// `(W, V, Y, M)`, or `None` for one GPU.
    pub node: Option<(usize, usize, usize, usize)>,
    /// Parts the problem is split into (sizes the `K` parameter).
    pub parts: usize,
}

/// The paper's configurations (Figs. 9, 10, 12 and 13).
pub const CONFIGS: [Config; 6] = [
    Config { name: "Scan-SP", proposal: Proposal::Sp, node: None, parts: 1 },
    Config { name: "Scan-MPS W=2", proposal: Proposal::Mps, node: Some((2, 2, 1, 1)), parts: 2 },
    Config { name: "Scan-MPS W=4", proposal: Proposal::Mps, node: Some((4, 4, 1, 1)), parts: 4 },
    Config { name: "Scan-MPS W=8", proposal: Proposal::Mps, node: Some((8, 4, 2, 1)), parts: 8 },
    Config { name: "Scan-MP-PC", proposal: Proposal::Mppc, node: Some((8, 4, 2, 1)), parts: 4 },
    Config {
        name: "Scan-MPS M=2 W=4",
        proposal: Proposal::MpsMultinode,
        node: Some((4, 4, 1, 2)),
        parts: 8,
    },
];

/// The request for `config` at problem size `2^n`, with the premises'
/// tuple and default `K`.
pub fn request(config: &Config, n: u32) -> ScanRequest<Add> {
    let device = DeviceSpec::tesla_k80();
    let problem = ProblemParams::fixed_total(TOTAL_LOG2, n);
    let base = premises::derive_tuple(&device, 4, 0);
    let k = premises::default_k(&device, &problem, &base, config.parts)
        .unwrap_or_else(|| panic!("{} is infeasible at n = {n}", config.name));
    let mut req = ScanRequest::new(Add, problem).proposal(config.proposal).tuple(base.with_k(k));
    if let Some((w, v, y, m)) = config.node {
        req = req.devices(NodeConfig::new(w, v, y, m).expect("valid node configuration"));
    }
    req
}

/// Scan `i` of window `w`: its configuration, size and arrival gap.
fn draw(seed: u64, w: usize, i: usize) -> (&'static Config, u32, f64) {
    let config = &CONFIGS[i / SIZE_CLASSES.len()];
    let r = mix(seed, ((w as u64) << 16) | i as u64);
    let n = SIZE_CLASSES[i % SIZE_CLASSES.len()][(r & 1) as usize];
    let gap_us = (r >> 1) % (2 * MEAN_GAP_US + 1);
    (config, n, gap_us as f64 * 1e-6)
}

/// A fresh input for scan `i` of window `w`: values on `[-100, 100]`.
fn input(seed: u64, w: usize, i: usize) -> Vec<i32> {
    let base = mix(seed ^ 0x5CA4, ((w as u64) << 16) | i as u64);
    (0..1u64 << TOTAL_LOG2).map(|j| (mix(base, j) % 201) as i32 - 100).collect()
}

/// Whether `data` is the row-by-row inclusive scan of `input`.
fn matches_reference(input: &[i32], data: &[i32], row: usize) -> bool {
    data.len() == input.len()
        && input
            .chunks_exact(row)
            .zip(data.chunks_exact(row))
            .all(|(i, d)| sequential_inclusive(Add, i) == d)
}

/// Run the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let traced = cfg.mode == Mode::Traced;
    if let Err(e) = reset_peak_rss() {
        out.violations.push(format!("resetting the peak resident set: {e}"));
    }
    let scans = CONFIGS.len() * SIZE_CLASSES.len();
    let mut tracer = if traced { Tracer::new() } else { Tracer::disabled() };
    let span_cost = if traced { Tracer::span_cost() } else { 0.0 };
    let mut host = HostSeries::default();
    let mut sim = SimPool::default();
    let mut counts = ReplayCounts::default();
    let mut setup_s = Vec::new();
    let mut peak_rss = 0.0;
    let started = Instant::now();
    let mut w = 0usize;
    while w < cfg.sim_windows || started.elapsed().as_secs_f64() < cfg.seconds {
        let in_sim = w < cfg.sim_windows;
        let mark = tracer.mark();
        let (mut window_s, mut cpu_s, mut gen_s, mut window_allocs) = (0.0, 0.0, 0.0, 0u64);
        let mut fleets: Vec<(FleetTimeline, f64)> =
            CONFIGS.iter().map(|_| (FleetTimeline::new(), 0.0)).collect();
        for i in 0..scans {
            let (config, n, gap) = draw(cfg.seed, w, i);
            let req = request(config, n);
            let t = Stopwatch::start();
            let data = input(cfg.seed, w, i);
            gen_s += t.cpu_s();

            out.attempted += 1;
            let allocs_before = allocs();
            let t = Stopwatch::start();
            let result = tracer.span("plan.build", None, |_| req.run(&data));
            window_s += t.wall_s();
            cpu_s += t.cpu_s();
            window_allocs += allocs() - allocs_before;
            let scan = match result {
                Ok(scan) => scan,
                Err(e) => {
                    out.failed += 1;
                    out.violations.push(format!("window {w} {} n={n}: {e}", config.name));
                    continue;
                }
            };
            let row = 1usize << n;
            let ok =
                tracer.span("reference.scan", None, |_| matches_reference(&data, &scan.data, row));
            out.failed += u64::from(!ok);

            let graph = Arc::new(scan.report.graph.clone().unwrap_or_else(ExecGraph::new));
            let (fleet, arrival) = &mut fleets[i / SIZE_CLASSES.len()];
            *arrival += gap;
            let release = *arrival;
            let admission = tracer.span("fleet.admit", None, |_| {
                fleet.admit_shared(graph.clone(), empty_remap(), release, format!("s{i}:"))
            });
            if traced {
                tracer.span("schedule", None, |_| std::hint::black_box(graph.schedule()));
                let (trace, utilization, path) = tracer.span("report.metrics", None, |_| {
                    let trace = Trace::from_graph(&graph);
                    let (utilization, path) = (trace.utilization(), trace.critical_path());
                    (trace, utilization, path)
                });
                tracer.span("report.trace_export", None, |_| trace.chrome_trace_json().len());
                if in_sim {
                    count_graph(&mut counts, &graph);
                    counts.builds += 1;
                    counts.elements += scan.report.elements as u64;
                    counts.launches += 1;
                    sim.links.add_utilization(&utilization);
                    sim.links.add_critical_path(&path);
                }
            }
            if in_sim {
                sim.offered += 1;
                let (latency, wait) = (admission.finish - release, admission.start - release);
                sim.add(latency, wait, scan.report.elements, LATENCY_LIMIT_S);
                sim.makespan += scan.report.makespan;
                sim.launches += 1;
            }
        }
        sim.end_window();
        let elements = (scans << TOTAL_LOG2) as f64;
        host.push("host_rps", scans as f64 / cpu_s);
        host.push("host_melem_per_s", elements / 1e6 / cpu_s);
        host.push("wall_rps", scans as f64 / window_s);
        host.push("serve.allocs_per_request", window_allocs as f64 / scans as f64);
        setup_s.push(gen_s);
        if traced {
            record_layers(&mut host, &tracer.self_times(mark), window_s, &["plan.build"]);
            let spans = (tracer.mark() - mark) as f64;
            host.push("trace.overhead_frac", spans * span_cost / window_s);
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
    out.put("failed_frac", out.failed as f64 / out.attempted.max(1) as f64, "fraction");
    out.put("serve.allocs_per_request", host.median("serve.allocs_per_request"), "count");
    out.put("sim.queue_wait_p99_s", percentile_of(&mut sim.queue_waits, 99), "s");
    out.lines.push(format!(
        "timed windows: {w} x {scans} scans of 2^{TOTAL_LOG2} elements ({} configurations x {} sizes)",
        CONFIGS.len(),
        SIZE_CLASSES.len()
    ));
    if traced {
        let absent = ["input.gen", "plan.lookup", "queue.sort_coalesce"];
        put_layers(&mut out, &host, &counts, cfg.sim_windows, &absent);
        sim.links.put(&mut out);
        out.put("sim.gpu_busy_frac", sim.links.stream_busy_frac(), "fraction");
        out.spans = tracer.to_json_lines();
    }
    out
}
