//! Byte-compare the committed benchmark goldens against freshly built
//! bytes — in the test suite, not just CI.
//!
//! `BENCH_serve.json`, `BENCH_scan.json` and `BENCH_serve_mixed.json` at
//! the repo root are the regression baselines; any drift in the serving
//! engine, the workload generator (e.g. a new spec knob accidentally
//! drawing from the shared RNG stream), or the JSON renderers shows up
//! here as a byte diff. Regenerate deliberately with
//! `cargo run --release -p bench --bin figures -- serve bench-scan --out .`
//! and, for the mixed-operator golden (written as `BENCH_serve.json` into
//! its `--out` directory),
//! `cargo run --release -p bench --bin figures -- --seed 7 --requests 200
//! --policy all --op-mix --shards 4 --out <dir> serve`.

use bench::{bench_scan_json, bench_scan_rows, bench_serve_json, serve_windows, sharded_windows};
use devices::FabricPreset;
use scan_serve::WorkloadSpec;

fn committed(name: &str) -> String {
    let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

#[test]
fn committed_bench_serve_json_is_byte_identical() {
    let requests = WorkloadSpec::default_for(7, 200).generate();
    let windows = serve_windows(&requests, 7, 8, true, &[], FabricPreset::Pcie);
    let built = bench_serve_json(7, requests.len(), 8, true, &windows, None);
    assert_eq!(
        built,
        committed("BENCH_serve.json"),
        "default BENCH_serve.json bytes drifted from the committed golden"
    );
}

/// Mixed-operator serving — all four operator kinds, the gated recurrence
/// included — unsharded and through a 4-shard router: pins the simulated
/// timings of every kind's plan-cache hits and cold builds.
#[test]
fn committed_bench_serve_mixed_json_is_byte_identical() {
    let requests = WorkloadSpec::mixed_ops_for(7, 200).generate();
    let windows = serve_windows(&requests, 7, 8, true, &[], FabricPreset::Pcie);
    let sharded = sharded_windows(&requests, 7, 4, 8, true);
    let built =
        bench_serve_json(7, requests.len(), 8, true, &windows, Some((4, 8, sharded.as_slice())));
    assert_eq!(
        built,
        committed("BENCH_serve_mixed.json"),
        "mixed-operator BENCH_serve_mixed.json bytes drifted from the committed golden"
    );
}

#[test]
fn committed_bench_scan_json_is_byte_identical() {
    let rows = bench_scan_rows();
    assert_eq!(
        bench_scan_json(&rows, None),
        committed("BENCH_scan.json"),
        "default BENCH_scan.json bytes drifted from the committed golden"
    );
}
