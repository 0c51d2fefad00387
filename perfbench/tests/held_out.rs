//! Host metrics on a held-out seed stay within the bounds `BENCHMARK.json`
//! sets, on every workload.
//!
//! Each run is the benchmark command itself, in a process of its own, as
//! the benchmark is meant to be run: host rates are measured in process
//! CPU time, and peak memory per process, so runs must not share one.
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

use perfbench::WORKLOADS;
use scan_serve::Json;

/// The seed the tests use, and a held-out one.
const SEED: u64 = 7;
const HELD_OUT: u64 = 11;
/// Host metrics compared, each against its bound.
const HOST: [&str; 4] = ["host_rps", "host_melem_per_s", "setup_s", "peak_rss_mib"];

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

fn bound(doc: &Json, name: &str) -> f64 {
    doc.get("end_to_end")
        .and_then(Json::as_array)
        .and_then(|m| m.iter().find(|e| e.get("name").and_then(Json::as_str) == Some(name)))
        .and_then(|e| e.get("bound"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("{name} has a bound"))
}

/// One untraced run of `workload` at `seed`: its result line.
fn run(workload: &str, seed: u64) -> Json {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", "5"])
        .args(["--trace", "0"])
        .output()
        .expect("the benchmark runs");
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    assert!(output.status.success(), "{workload} at seed {seed} failed:\n{stdout}");
    Json::parse(stdout.lines().last().expect("a result line")).expect("a JSON result line")
}

#[test]
fn host_metrics_on_a_held_out_seed_stay_within_the_bounds() {
    let doc = benchmark_json();
    for workload in WORKLOADS {
        let (a, b) = (run(workload, SEED), run(workload, HELD_OUT));
        for name in HOST {
            let value = |r: &Json| {
                r.get("metrics").and_then(|m| m.get(name)?.get("value")?.as_f64()).unwrap()
            };
            let (x, y) = (value(&a), value(&b));
            assert!(
                (x - y).abs() / x <= bound(&doc, name),
                "{workload} {name}: {x} at seed {SEED}, {y} at seed {HELD_OUT}"
            );
        }
    }
}
