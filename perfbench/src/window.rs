//! Accumulators shared by the workloads: per-window host times, pooled
//! simulated statistics, link utilization and the output check.

use std::collections::BTreeMap;

use interconnect::{CriticalPathReport, Resource, UtilizationReport};
use scan_serve::Completion;

use crate::elem::expected_checksum;
use crate::stats::{median, percentile, percentile_of};
use crate::Outcome;

/// Per-window host measurements, reduced to medians at the end.
#[derive(Debug, Default)]
pub struct HostSeries {
    series: BTreeMap<&'static str, Vec<f64>>,
}

impl HostSeries {
    /// Record one window's value of `name`.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.series.entry(name).or_default().push(value);
    }

    /// Median of `name` over the windows that recorded it (0 if none).
    pub fn median(&self, name: &str) -> f64 {
        self.series.get(name).map_or(0.0, |v| median(v))
    }

    /// Sum of `name` over the first `windows` windows.
    pub fn sum_first(&self, name: &str, windows: usize) -> f64 {
        let v = self.values(name);
        v[..windows.min(v.len())].iter().sum()
    }

    /// One line summarizing `name` over the windows: count, min, median,
    /// 90th percentile and max.
    pub fn describe(&self, name: &str) -> String {
        let mut v = self.values(name).to_vec();
        v.sort_by(f64::total_cmp);
        match (v.first(), v.last()) {
            (Some(lo), Some(hi)) => format!(
                "{name} over {} windows: min {lo:.4e}, median {:.4e}, p90 {:.4e}, max {hi:.4e}",
                v.len(),
                median(&v),
                percentile(&v, 90)
            ),
            _ => format!("{name}: no windows"),
        }
    }

    /// Every value of `name`, in window order.
    pub fn values(&self, name: &str) -> &[f64] {
        self.series.get(name).map_or(&[], Vec::as_slice)
    }
}

/// Record the host metrics every workload reports: median window rates
/// per CPU second (with one-line summaries of their spread and of the
/// wall-clock rates) and the median set-up CPU time.
pub fn put_host(out: &mut Outcome, host: &HostSeries, setup_s: &[f64]) {
    out.lines.push(host.describe("host_rps"));
    out.lines.push(host.describe("wall_rps"));
    out.put("host_rps", host.median("host_rps"), "req/s");
    out.put("host_melem_per_s", host.median("host_melem_per_s"), "Melem/s");
    out.put("setup_s", median(setup_s), "s");
}

/// Record the serving workloads' input volume, allocations and plan-cache
/// accounting. Plan counts are summed over the first `sim_windows`
/// windows, which every run serves, so they are deterministic for a seed.
pub fn put_serve_accounting(out: &mut Outcome, host: &HostSeries, sim_windows: usize) {
    out.put("input.melem", host.median("input.melem"), "Melem");
    out.put("serve.allocs_per_request", host.median("serve.allocs_per_request"), "count");
    let sum = |name| host.sum_first(name, sim_windows);
    let (hits, misses) = (sum("plan.hits"), sum("plan.misses"));
    out.put("plan.hits", hits, "count");
    out.put("plan.misses", misses, "count");
    out.put("plan.hit_rate", hits / (hits + misses).max(1.0), "fraction");
    out.put("plan.bypasses", sum("plan.bypasses"), "count");
}

/// Simulated-time statistics over the fixed set of windows.
#[derive(Debug, Default)]
pub struct SimPool {
    /// Latencies of the window in progress.
    window: Vec<f64>,
    /// Per-window median latency.
    window_p50: Vec<f64>,
    /// Per-window 99th-percentile latency.
    window_p99: Vec<f64>,
    /// Completed requests.
    pub completed: usize,
    /// Arrival-to-dispatch (or arrival-to-start) queue waits, pooled.
    pub queue_waits: Vec<f64>,
    /// Requests offered (completed, rejected or failed).
    pub offered: usize,
    /// Completed requests whose latency met the workload's limit.
    pub within_limit: usize,
    /// Elements completed.
    pub elements: f64,
    /// Summed simulated makespans.
    pub makespan: f64,
    /// Launches.
    pub launches: usize,
    /// Per-window (per-shard) GPU busy fractions.
    pub gpu_busy: Vec<f64>,
    /// Deepest queue seen.
    pub max_queue_depth: usize,
    /// Link utilization over the windows.
    pub links: LinkStats,
}

impl SimPool {
    /// Add one completed operation of the current window.
    pub fn add(&mut self, latency: f64, queue_wait: f64, elements: usize, limit: f64) {
        self.window.push(latency);
        self.queue_waits.push(queue_wait);
        self.within_limit += usize::from(latency <= limit);
        self.elements += elements as f64;
        self.completed += 1;
    }

    /// Add a window's completions against the latency `limit`.
    pub fn add_completions<'a>(
        &mut self,
        completions: impl IntoIterator<Item = &'a Completion>,
        limit: f64,
    ) {
        for c in completions {
            let wait = c.dispatched - c.request.arrival;
            self.add(c.latency(), wait, c.request.total_elems(), limit);
        }
    }

    /// Close the current window: take its latency percentiles.
    pub fn end_window(&mut self) {
        if !self.window.is_empty() {
            self.window_p50.push(percentile_of(&mut self.window, 50));
            self.window_p99.push(percentile_of(&mut self.window, 99));
            self.window.clear();
        }
    }

    /// Record the end-to-end simulated metrics. Latency percentiles are
    /// taken per window and reported as their median over the windows:
    /// one burst-heavy window would otherwise own the pooled tail.
    pub fn put_end_to_end(&mut self, out: &mut Outcome) {
        self.end_window();
        let offered = self.offered.max(1) as f64;
        out.put("sim_p50_latency_s", median(&self.window_p50), "s");
        out.put("sim_p99_latency_s", median(&self.window_p99), "s");
        out.put("sim_slo_attain", self.within_limit as f64 / offered, "fraction");
        out.put("sim_melem_per_s", self.elements / 1e6 / self.makespan, "Melem/s");
    }

    /// Record the serving-layer simulated metrics.
    pub fn put_serving(&mut self, out: &mut Outcome) {
        let completed = self.completed as f64;
        out.put("sim.coalescing_ratio", completed / self.launches.max(1) as f64, "ratio");
        out.put("sim.launches", self.launches as f64, "count");
        out.put("sim.queue_wait_p99_s", percentile_of(&mut self.queue_waits, 99), "s");
        let busy = self.gpu_busy.iter().sum::<f64>() / self.gpu_busy.len().max(1) as f64;
        out.put("sim.gpu_busy_frac", busy, "fraction");
        out.put("sim.max_queue_depth", self.max_queue_depth as f64, "count");
    }
}

/// Busy time of the simulated links and the critical path's make-up.
#[derive(Debug, Default, Clone, Copy)]
pub struct LinkStats {
    pcie_busy: f64,
    pcie_capacity: f64,
    ib_busy: f64,
    ib_capacity: f64,
    host_staging: f64,
    stream_busy: f64,
    stream_capacity: f64,
    windows: usize,
    path_compute: f64,
    path_total: f64,
}

impl LinkStats {
    /// Add one schedule's per-resource utilization.
    pub fn add_utilization(&mut self, u: &UtilizationReport) {
        for r in &u.resources {
            match r.resource {
                Some(Resource::PcieNetwork { .. }) => {
                    self.pcie_busy += r.busy_seconds;
                    self.pcie_capacity += u.makespan;
                }
                Some(Resource::IbLink { .. }) => {
                    self.ib_busy += r.busy_seconds;
                    self.ib_capacity += u.makespan;
                }
                Some(Resource::HostBridge { .. }) => self.host_staging += r.busy_seconds,
                Some(Resource::Stream { .. }) => {
                    self.stream_busy += r.busy_seconds;
                    self.stream_capacity += u.makespan;
                }
                None => {}
            }
        }
        self.windows += 1;
    }

    /// Add one schedule's critical path: kernel time (GPU stream tracks)
    /// against the whole path.
    pub fn add_critical_path(&mut self, c: &CriticalPathReport) {
        for node in &c.nodes {
            if node.track.starts_with("GPU ") {
                self.path_compute += node.seconds;
            }
            self.path_total += node.seconds;
        }
    }

    /// Busy fraction of the GPU streams the schedules used.
    pub fn stream_busy_frac(&self) -> f64 {
        if self.stream_capacity > 0.0 {
            self.stream_busy / self.stream_capacity
        } else {
            0.0
        }
    }

    /// Record the link metrics: busy fractions, host-staging seconds per
    /// schedule, and the kernel share of the critical path.
    pub fn put(&self, out: &mut Outcome) {
        let frac = |busy: f64, cap: f64| if cap > 0.0 { busy / cap } else { 0.0 };
        out.put("sim.pcie_busy_frac", frac(self.pcie_busy, self.pcie_capacity), "fraction");
        out.put("sim.ib_busy_frac", frac(self.ib_busy, self.ib_capacity), "fraction");
        out.put("sim.host_staging_s", self.host_staging / self.windows.max(1) as f64, "s");
        out.put(
            "sim.critical_path_compute_frac",
            frac(self.path_compute, self.path_total),
            "fraction",
        );
    }
}

/// Check every completion's checksum against the independent reference
/// on a regenerated input; returns the number of mismatches.
pub fn check_completions<'a>(
    input_seed: u64,
    completions: impl IntoIterator<Item = &'a Completion>,
) -> u64 {
    completions
        .into_iter()
        .filter(|c| expected_checksum(input_seed, &c.request) != c.checksum)
        .count() as u64
}
