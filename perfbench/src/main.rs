//! The repository benchmark's command line.
//!
//! ```text
//! perfbench --workload <serve-fresh|shard-mixed|scan-batch|all> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a human-readable report, then, as its last line, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end metrics; with `--trace 1`
//! the per-layer metrics (the full per-layer breakdown, including the
//! layers a workload lacks, is printed above it, and the spans are written
//! to `perfbench/out/`). `BENCHMARK.json` at the repository root lists
//! both sets. `--workload all` runs each workload in a child process of
//! this binary and merges their results, keying each metric as
//! `<workload>/<metric>`. Exits non-zero if any output mismatched the CPU
//! reference or an invariant failed.

use std::process::ExitCode;

use perfbench::{
    scan_batch, serve_fresh, shard_mixed, Metric, Mode, Outcome, RunConfig, END_TO_END, PER_LAYER,
    WORKLOADS,
};
use scan_serve::Json;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 7, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?} or all"));
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(args)
}

fn run(workload: &str, args: &Args) -> Outcome {
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        sim_windows: perfbench::default_sim_windows(workload),
        requests: 2000,
        router_threads: shard_mixed::ROUTER_THREADS,
        mode: if args.trace { Mode::Traced } else { Mode::Plain },
    };
    match workload {
        "serve-fresh" => serve_fresh::run(&cfg),
        "shard-mixed" => shard_mixed::run(&cfg),
        _ => scan_batch::run(&cfg),
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[(String, Metric)]) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(key, m)| {
            format!("\"{key}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.value, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// Print one workload's report and return the metrics of its JSON result
/// line.
fn report(workload: &str, args: &Args, outcome: &mut Outcome) -> Vec<Metric> {
    println!("## {workload} (seed {}, trace {})", args.seed, u8::from(args.trace));
    for line in &outcome.lines {
        println!("  {line}");
    }
    for m in &outcome.metrics {
        println!("  {:<36} {:>18.6e} {}", m.name, m.value, m.unit);
    }
    if args.trace {
        print_breakdown(workload, outcome);
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/spans_{workload}_seed{}.jsonl", args.seed);
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, &outcome.spans)) {
            Ok(()) => println!("  spans written to {path}"),
            Err(e) => outcome.violations.push(format!("writing {path}: {e}")),
        }
    }
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = names
        .iter()
        .map(|&(name, unit)| {
            let found = outcome.metrics.iter().find(|m| m.name == name).copied();
            match found {
                Some(m) if m.unit != unit => outcome
                    .violations
                    .push(format!("metric {name} measured in {}, declared in {unit}", m.unit)),
                // A per-layer count or fraction of a layer this workload
                // does not have reads 0; a missing time is a bug.
                None if !args.trace || name.ends_with("_s") => {
                    outcome.violations.push(format!("metric {name} was not measured"))
                }
                _ => {}
            }
            let value = found.map_or(0.0, |m| m.value);
            if !value.is_finite() {
                outcome.violations.push(format!("metric {name} is not finite"));
                return Metric { name, value: 0.0, unit };
            }
            Metric { name, value, unit }
        })
        .collect();
    for v in &outcome.violations {
        println!("  VIOLATION: {v}");
    }
    metrics
}

/// The per-layer host-time breakdown, largest layer first.
fn print_breakdown(workload: &str, outcome: &Outcome) {
    let mut layers: Vec<&Metric> = outcome
        .metrics
        .iter()
        .filter(|m| m.unit == "s" && !m.name.starts_with("sim") && !m.name.starts_with("cold200"))
        .filter(|m| !m.name.starts_with("router.") && m.name != "setup_s")
        .collect();
    layers.sort_by(|a, b| b.value.total_cmp(&a.value));
    println!("  host-time breakdown per window (median self time):");
    for m in &layers {
        println!("    {:<28} {:>10.3} ms", m.name, m.value * 1e3);
    }
    if let Some(top) = layers.iter().find(|m| m.name != "serve.unattributed_s") {
        println!("  layer with the most host time on {workload}: {}", top.name);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (correct, line) = if args.workload == "all" { run_all(&args) } else { run_one(&args) };
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run one workload in this process; returns whether it was correct and
/// its result line.
fn run_one(args: &Args) -> (bool, String) {
    let mut outcome = run(&args.workload, args);
    let metrics = report(&args.workload, args, &mut outcome);
    let correct = outcome.correct();
    let metrics: Vec<_> = metrics.into_iter().map(|m| (m.name.to_string(), m)).collect();
    (correct, json_line(correct, outcome.attempted, outcome.failed, &metrics))
}

/// Run every workload, each in a child process of this binary, so that
/// each reports its own peak memory and CPU time rather than what an
/// earlier workload left behind in the process. Prints each child's report
/// and merges their result lines, keying every metric by its workload.
fn run_all(args: &Args) -> (bool, String) {
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for workload in WORKLOADS {
        let child = std::env::current_exe().and_then(|exe| {
            std::process::Command::new(exe)
                .args(["--workload", workload, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .stderr(std::process::Stdio::inherit())
                .output()
        });
        let stdout = match child {
            Ok(output) => String::from_utf8_lossy(&output.stdout).into_owned(),
            Err(e) => {
                println!("## {workload}: could not run: {e}");
                correct = false;
                continue;
            }
        };
        let mut lines: Vec<&str> = stdout.lines().collect();
        let result = lines.pop().and_then(|last| Json::parse(last).ok());
        for line in &lines {
            println!("{line}");
        }
        let Some(result) = result else {
            println!("  VIOLATION: {workload} printed no result line");
            correct = false;
            continue;
        };
        correct &= result.get("correct") == Some(&Json::Bool(true));
        attempted += result.get("attempted").and_then(Json::as_usize).unwrap_or(0) as u64;
        failed += result.get("failed").and_then(Json::as_usize).unwrap_or(0) as u64;
        for &(name, unit) in names {
            let value = result.get("metrics").and_then(|m| m.get(name)?.get("value")?.as_f64());
            let Some(value) = value else {
                println!("  VIOLATION: {workload} reported no {name}");
                correct = false;
                continue;
            };
            metrics.push((format!("{workload}/{name}"), Metric { name, value, unit }));
        }
    }
    (correct, json_line(correct, attempted, failed, &metrics))
}
