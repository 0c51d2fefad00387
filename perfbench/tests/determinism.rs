//! The benchmark's own checks: simulated metrics repeat bit for bit and
//! move only with the seed, the router's thread count changes nothing
//! simulated, the output check catches a wrong checksum, and the traced
//! run's replay catches an admission the server did not make.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::HashMap;

use perfbench::replay::Replay;
use perfbench::spans::Tracer;
use perfbench::window::check_completions;
use perfbench::{scan_batch, serve_fresh, shard_mixed, Mode, Outcome, RunConfig};
use scan_serve::{Json, Policy, ServeConfig, Server};

/// The workload seed of these checks, and another one.
const SEED: u64 = 7;
const HELD_OUT: u64 = 11;

fn small(seed: u64) -> RunConfig {
    RunConfig {
        seed,
        seconds: 0.0,
        sim_windows: 2,
        requests: 300,
        router_threads: 2,
        mode: Mode::Plain,
    }
}

fn sim_metrics(out: &Outcome) -> Vec<(&'static str, u64)> {
    out.metrics
        .iter()
        .filter(|m| {
            m.name.starts_with("sim") || m.name.starts_with("router.") && m.name != "router.run_s"
        })
        .map(|m| (m.name, m.value.to_bits()))
        .collect()
}

fn all(cfg: &RunConfig) -> [Outcome; 3] {
    [serve_fresh::run(cfg), shard_mixed::run(cfg), scan_batch::run(cfg)]
}

#[test]
fn simulated_metrics_repeat_bit_for_bit_and_move_with_the_seed() {
    let first = all(&small(SEED));
    let again = all(&small(SEED));
    let held_out = all(&small(HELD_OUT));
    for ((a, b), c) in first.iter().zip(&again).zip(&held_out) {
        assert!(a.correct() && b.correct() && c.correct(), "{:?}", a.violations);
        assert!(!sim_metrics(a).is_empty());
        assert_eq!(sim_metrics(a), sim_metrics(b), "same seed, same simulated metrics");
        let (p99, other) = (a.get("sim_p99_latency_s"), c.get("sim_p99_latency_s"));
        assert_ne!(p99, other, "a different seed gives a different simulated window");
    }
}

#[test]
fn traced_runs_simulate_exactly_what_untraced_runs_do() {
    let plain = small(SEED);
    let traced = RunConfig { mode: Mode::Traced, ..plain };
    for (a, b) in all(&plain).iter().zip(&all(&traced)) {
        assert!(b.correct(), "{:?}", b.violations);
        let traced_sim: Vec<_> =
            sim_metrics(b).into_iter().filter(|(name, _)| a.get(name).is_some()).collect();
        assert_eq!(sim_metrics(a), traced_sim);
        assert!(b.get("serve.unattributed_s").is_some());
        let declared = perfbench::END_TO_END.iter().chain(&perfbench::PER_LAYER);
        for m in a.metrics.iter().chain(&b.metrics) {
            if let Some(&(_, unit)) = declared.clone().find(|&&(name, _)| name == m.name) {
                assert_eq!(m.unit, unit, "{}", m.name);
            }
        }
    }
}

#[test]
fn shard_mixed_is_the_same_on_one_and_two_router_threads() {
    let one = shard_mixed::run(&RunConfig { router_threads: 1, ..small(SEED) });
    let two = shard_mixed::run(&RunConfig { router_threads: 2, ..small(SEED) });
    assert_eq!(sim_metrics(&one), sim_metrics(&two));
    assert!(one.get("router.rejections").is_some());
}

#[test]
fn the_output_check_catches_a_wrong_checksum() {
    let requests = serve_fresh::window_requests(SEED, 0, 40, 0);
    let report = Server::new(ServeConfig::new(Policy::Edf, SEED)).run(&requests).unwrap();
    assert_eq!(check_completions(SEED, &report.completions), 0);
    let mut bad = report.completions.clone();
    bad[17].checksum ^= 1;
    assert_eq!(check_completions(SEED, &bad), 1);
    assert_eq!(check_completions(SEED + 1, &report.completions), 40, "inputs follow the seed");
}

#[test]
fn the_replay_follows_the_server_and_catches_a_divergence() {
    let requests = serve_fresh::window_requests(SEED, 0, 300, 0);
    let report = Server::new(ServeConfig::new(Policy::Edf, SEED)).run(&requests).unwrap();
    let replay = |completions: &[scan_serve::Completion]| {
        let mut replay = Replay::new(Policy::Edf, SEED, 8, 0);
        replay.window(&mut Tracer::disabled(), completions, &HashMap::new()).unwrap();
        replay
    };
    let faithful = replay(&report.completions);
    assert_eq!(faithful.counts.admission_mismatches, 0);
    let (served, replayed) = (report.cache_stats, faithful.cache_stats());
    assert_eq!((served.hits, served.misses), (replayed.hits, replayed.misses));
    assert!(faithful.counts.launches > 0);

    // Move one solo launch's start by one ulp: the replay must notice.
    let mut bad = report.completions.clone();
    let solo = bad.iter_mut().find(|c| c.coalesced == 1).expect("a solo launch");
    solo.started = f64::from_bits(solo.started.to_bits() + 1);
    assert_eq!(replay(&bad).counts.admission_mismatches, 1);
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

fn entries(doc: &Json, list: &str, field: &str) -> Vec<String> {
    doc.get(list)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("{list} is a list"))
        .iter()
        .map(|e| e.get(field).and_then(Json::as_str).expect("a string field").to_string())
        .collect()
}

#[test]
fn benchmark_json_lists_what_the_command_prints() {
    let doc = benchmark_json();
    assert_eq!(entries(&doc, "workloads", "name"), perfbench::WORKLOADS);
    for (list, declared) in
        [("end_to_end", &perfbench::END_TO_END[..]), ("per_layer", &perfbench::PER_LAYER[..])]
    {
        let names: Vec<&str> = declared.iter().map(|&(name, _)| name).collect();
        let units: Vec<&str> = declared.iter().map(|&(_, unit)| unit).collect();
        assert_eq!(entries(&doc, list, "name"), names);
        assert_eq!(entries(&doc, list, "unit"), units);
    }
}
