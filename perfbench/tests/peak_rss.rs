//! `peak_rss_mib` is each workload's own peak, not the process's: a run
//! after a larger peak does not repeat it. One test, in a file of its own,
//! so that no other test allocates beside it.

use perfbench::stats::peak_rss_mib;
use perfbench::{scan_batch, serve_fresh, Mode, RunConfig};

/// MiB touched, then freed, before each workload runs.
const BALLOON_MIB: usize = 256;

fn balloon() {
    let block = vec![1u8; BALLOON_MIB << 20];
    std::hint::black_box(&block);
    drop(block);
    assert!(peak_rss_mib() >= BALLOON_MIB as f64, "the balloon raised the process peak");
}

#[test]
fn each_workload_reports_its_own_peak() {
    let cfg = RunConfig {
        seed: 7,
        seconds: 0.0,
        sim_windows: 1,
        requests: 200,
        router_threads: 1,
        mode: Mode::Plain,
    };
    balloon();
    let first = scan_batch::run(&cfg).get("peak_rss_mib").unwrap();
    balloon();
    let second = serve_fresh::run(&cfg).get("peak_rss_mib").unwrap();
    for peak in [first, second] {
        assert!(peak > 0.0 && peak < BALLOON_MIB as f64, "{peak} MiB repeats an earlier peak");
    }
    assert_ne!(first, second, "the second workload has a peak of its own");
}
