//! The metric record and the few statistics the benchmark needs.

/// One named measurement with its unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value, unrounded.
    pub value: f64,
    /// Unit (`s`, `req/s`, `Melem/s`, `MiB`, `fraction`, `count`, ...).
    pub unit: &'static str,
}

/// Median (mean of the two middle values for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending slice — the rule
/// `scan_serve::FleetMetrics` uses for its latency percentiles.
pub fn percentile(sorted: &[f64], p: usize) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len()).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// Sort in place and return the `p`-th nearest-rank percentile.
pub fn percentile_of(values: &mut [f64], p: usize) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, p)
}

/// CPU seconds this process (every thread) has used so far
/// (`CLOCK_PROCESS_CPUTIME_ID`). Host rates divide work by the CPU time a
/// window took rather than its wall time: on a host shared with other
/// load, time spent descheduled would otherwise show as a slower program.
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `Timespec` matches the C `struct timespec` on 64-bit Linux.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Host time since a start point: wall clock and process CPU time.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    wall: std::time::Instant,
    cpu: f64,
}

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Self {
        Stopwatch { wall: std::time::Instant::now(), cpu: cpu_seconds() }
    }

    /// Wall-clock seconds since the start.
    pub fn wall_s(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }

    /// CPU seconds the process used since the start.
    pub fn cpu_s(&self) -> f64 {
        cpu_seconds() - self.cpu
    }
}

/// Reset the process's peak resident set to its current resident set, so
/// that [`peak_rss_mib`] reports the peak of what runs next only.
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Peak resident set size since the last [`reset_peak_rss`] (or since the
/// process started), in MiB: `VmHWM` of `/proc/self/status`.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50), 50.0);
        assert_eq!(percentile(&sorted, 99), 99.0);
        assert!(peak_rss_mib() > 0.0);
        let t = cpu_seconds();
        std::hint::black_box((0..1_000_000u64).sum::<u64>());
        assert!(cpu_seconds() >= t);
    }

    #[test]
    fn peak_rss_resets() {
        let block = vec![1u8; 96 << 20];
        std::hint::black_box(&block);
        drop(block);
        assert!(peak_rss_mib() >= 96.0);
        reset_peak_rss().unwrap();
        assert!(peak_rss_mib() < 96.0, "the reset peak forgets the freed block");
    }
}
