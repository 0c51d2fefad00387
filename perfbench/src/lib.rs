//! The repository benchmark: three workloads timed from outside the
//! library crates, with every output checked against the CPU reference.
//!
//! * [`serve_fresh`] — one [`scan_serve::Server`] on fresh request ids over
//!   a warm plan cache (the realistic steady state);
//! * [`shard_mixed`] — a four-shard [`scan_serve::Router`] serving the
//!   mixed-operator mix fast enough to overflow its bounded queues;
//! * [`scan_batch`] — the paper's batch scan through
//!   [`scan_core::ScanRequest::run`], no serving layer.
//!
//! Host metrics are medians over repeated windows, timed in process CPU
//! time ([`stats::Stopwatch`]; per-layer span times are wall-clock); simulated
//! metrics come from a fixed set of windows and repeat bit for bit for a
//! given seed. A traced run ([`Mode::Traced`]) additionally replays each
//! window layer by layer through the public functions of the serving,
//! planning and interconnect crates, recording one span per layer call
//! (see [`spans`] and [`replay`]), and reports per-layer host time.

pub mod alloc;
pub mod elem;
pub mod replay;
pub mod scan_batch;
pub mod serve_fresh;
pub mod shard_mixed;
pub mod spans;
pub mod stats;
pub mod window;

pub use stats::Metric;

/// End-to-end metrics and their units, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 8] = [
    ("host_rps", "req/s"),
    ("host_melem_per_s", "Melem/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("sim_p50_latency_s", "s"),
    ("sim_p99_latency_s", "s"),
    ("sim_slo_attain", "fraction"),
    ("sim_melem_per_s", "Melem/s"),
];

/// Per-layer metrics and their units, printed by every traced run (0 where
/// a workload has no such layer). Times that read 0 on some workload
/// (`input.gen_s`, `plan.lookup_s`, `plan.build_s`,
/// `queue.sort_coalesce_s`, `router.run_s`, `router.shard_p99_max_s`) are
/// printed in the text report only.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("input.melem", "Melem"),
    ("reference.scan_s", "s"),
    ("plan.hits", "count"),
    ("plan.misses", "count"),
    ("plan.hit_rate", "fraction"),
    ("plan.bypasses", "count"),
    ("plan.builds", "count"),
    ("gpusim.gld_transactions_per_melem", "1/Melem"),
    ("gpusim.shuffles_per_melem", "1/Melem"),
    ("gpusim.kernel_launches", "count"),
    ("schedule.nodes_per_s", "1/s"),
    ("fleet.admit_s", "s"),
    ("fleet.admissions", "count"),
    ("sim.pcie_busy_frac", "fraction"),
    ("sim.ib_busy_frac", "fraction"),
    ("sim.host_staging_s", "s"),
    ("sim.critical_path_compute_frac", "fraction"),
    ("sim.coalescing_ratio", "ratio"),
    ("sim.launches", "count"),
    ("sim.queue_wait_p99_s", "s"),
    ("sim.gpu_busy_frac", "fraction"),
    ("sim.max_queue_depth", "count"),
    ("router.steals", "count"),
    ("router.redirects", "count"),
    ("router.rejections", "count"),
    ("router.shard_imbalance", "ratio"),
    ("report.metrics_s", "s"),
    ("report.trace_export_s", "s"),
    ("serve.allocs_per_request", "count"),
    ("serve.unattributed_s", "s"),
    ("trace.overhead_frac", "fraction"),
    ("failed_frac", "fraction"),
];

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 3] = ["serve-fresh", "shard-mixed", "scan-batch"];

/// Windows every run serves, whatever `--seconds` says; the simulated
/// metrics come from exactly these.
pub fn default_sim_windows(workload: &str) -> usize {
    match workload {
        "serve-fresh" => 60,
        "shard-mixed" => 8,
        _ => 24,
    }
}

/// Whether a run records per-layer spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// End-to-end metrics only; no replay, no spans.
    Plain,
    /// Replay every window layer by layer and report per-layer metrics.
    Traced,
}

/// How much work one run does.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Workload seed: the same seed gives the same inputs and the same
    /// simulated metrics.
    pub seed: u64,
    /// Host seconds of timed windows to aim for (after set-up).
    pub seconds: f64,
    /// Windows every run serves whatever `seconds` says; simulated
    /// metrics are computed over exactly these, so they never depend on
    /// host speed.
    pub sim_windows: usize,
    /// Requests per serving window (scan-batch ignores it).
    pub requests: usize,
    /// Router worker threads (shard-mixed); never more than [`threads`].
    pub router_threads: usize,
    /// Whether to trace.
    pub mode: Mode,
}

/// What one workload run reports.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations offered (requests, or scans for scan-batch).
    pub attempted: u64,
    /// Operations that errored or whose output did not match the CPU
    /// reference. Router rejections are admission-control decisions, not
    /// failures, and are reported in `failed_frac` instead.
    pub failed: u64,
    /// Other invariant violations (e.g. a fresh-traffic window served from
    /// the response memo).
    pub violations: Vec<String>,
    /// Every metric the run measured, end-to-end and per-layer.
    pub metrics: Vec<Metric>,
    /// Human-readable report lines.
    pub lines: Vec<String>,
    /// The traced run's spans as JSON lines (empty when untraced).
    pub spans: String,
}

impl Outcome {
    /// Whether every output matched and no invariant was violated.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }

    /// Record a metric.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Look a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// A SplitMix64 step: derives independent per-window seeds from the run
/// seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Worker threads the benchmark may use: the host's parallelism, capped
/// at two.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(2)
}
