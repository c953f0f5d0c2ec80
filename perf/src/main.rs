//! `pruner-perf` — the repository's performance benchmark.
//!
//! ```text
//! pruner-perf --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! pruner-perf [--seed N] [--seconds S]            # all workloads, both passes
//! pruner-perf --selfcheck [--seed N] [--seconds S]
//! pruner-perf --list
//! ```
//!
//! With `--workload` the process runs that one workload and ends its
//! standard output with the result line `BENCHMARK.json` describes. Without
//! it, each workload runs in a fresh child process (so `peak_rss_mb` is its
//! own). Run from the repository root; see `perf/README.md`.

mod host;
mod layers;
mod replay;
mod report;
mod serve;
mod workloads;

use report::{MetricDef, Report, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workloads::{Cx, DurableWrite, Plain, ResumeRead};

#[global_allocator]
static ALLOCATOR: host::CountingAlloc = host::CountingAlloc;

/// Workload names and why each exists (mirrored in `BENCHMARK.json`).
const WORKLOADS: &[(&str, &str)] = &[
    ("op_online", "the plain paper loop on one GEMM: training-bound, the baseline durable_write is compared against"),
    ("explore_wide", "draft-then-verify at scale (pool 131072, space 4096): proposing-bound, training must not show"),
    ("net_mtl", "PSA + PaCM + MTL on a 37-task network: the multi-task scheduler, non-GEMM operators, Mtl::round"),
    ("durable_write", "op_online under Supervisor with checkpoint-every-round, trace and a pre-filled store: the write side"),
    ("resume_read", "resume a round-10 checkpoint with its store, then warm-start from it: the read side of the same layers"),
    ("serve_mixed", "the daemon over its socket, closed loop, 2 clients: campaigns against back-to-back PredictOnly"),
];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    selfcheck: bool,
    list: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 11,
        seconds: 10.0,
        trace: false,
        selfcheck: false,
        list: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds takes a number")?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--selfcheck" => args.selfcheck = true,
            "--list" => args.list = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("error: {why}");
            return ExitCode::from(2);
        }
    };
    if args.list {
        list();
        return ExitCode::SUCCESS;
    }
    if !Path::new("perf/Cargo.toml").exists() {
        eprintln!("error: run from the repository root (perf/Cargo.toml not found)");
        return ExitCode::from(2);
    }
    let threads = host::nproc().min(2);
    println!("{}", host::Fingerprint::probe(threads).line());
    match &args.workload {
        Some(name) => run_one(name, &args, threads),
        None if args.selfcheck => selfcheck(&args),
        None => suite(&args),
    }
}

fn list() {
    for (name, why) in WORKLOADS {
        println!("workload {name}: {why}");
    }
    for (table, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        for d in defs {
            match d.bound {
                Some(bound) => println!("{table} {} {} {} {bound}", d.name, d.unit, d.better),
                None => println!("{table} {} {} {}", d.name, d.unit, d.better),
            }
        }
    }
}

/// Runs one workload in this process and prints its result line last.
fn run_one(name: &str, args: &Args, threads: usize) -> ExitCode {
    let Some((name, _)) = WORKLOADS.iter().find(|(n, _)| *n == name) else {
        eprintln!("error: unknown workload `{name}` (see --list)");
        return ExitCode::from(2);
    };
    let out_dir = PathBuf::from("perf/out");
    let dir = out_dir.join(format!("w{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("error: cannot create {}: {e}", dir.display());
        return ExitCode::from(2);
    }
    let cx = Cx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        threads,
        dir: dir.clone(),
    };
    let (report, obs) = match *name {
        "op_online" => workloads::run(name, &mut Plain::op_online(), &cx),
        "explore_wide" => workloads::run(name, &mut Plain::explore_wide(), &cx),
        "net_mtl" => workloads::run(name, &mut Plain::net_mtl(), &cx),
        "durable_write" => workloads::run(name, &mut DurableWrite::new(&cx), &cx),
        "resume_read" => workloads::run(name, &mut ResumeRead::new(&cx), &cx),
        "serve_mixed" => serve::run(&cx),
        _ => unreachable!("every listed workload has a runner"),
    };
    let _ = std::fs::remove_dir_all(&dir);
    // Spans stay in memory until here: written once, at exit.
    if obs.tracing() {
        let path = out_dir.join(format!("{name}.trace.jsonl"));
        if let Err(e) = obs.write_jsonl(&path) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        }
    }
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    print_report(name, args, &report, defs);
    println!("{}", report.result_line(defs));
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn print_report(name: &str, args: &Args, report: &Report, defs: &[MetricDef]) {
    println!(
        "workload={name} seed={} seconds={} pass={} ops_attempted={} ops_failed={}",
        args.seed,
        args.seconds,
        if args.trace { "traced" } else { "end-to-end" },
        report.attempted,
        report.failed
    );
    for why in &report.failures {
        println!("FAILED: {why}");
    }
    for note in &report.notes {
        println!("  {note}");
    }
    for d in defs {
        let value = report.values.get(d.name).copied().unwrap_or(0.0);
        println!("  {:<32} {:>16.6} {}", d.name, value, d.unit);
    }
}

// ------------------------------------------------------------ suite modes

/// One child run's parsed result line.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

/// Runs one workload in a child process and parses its last line.
fn child(name: &str, args: &Args, trace: bool, echo: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().ok_or(format!("{name}: no output"))?;
    if echo {
        // The fingerprint line is the same for every child; skip it.
        for line in lines.iter().skip(1) {
            println!("{line}");
        }
    }
    let (correct, attempted, failed, metrics) =
        layers::parse_result_line(last).ok_or(format!("{name}: bad result line"))?;
    Ok(ChildResult {
        correct: correct && output.status.success(),
        attempted,
        failed,
        metrics,
    })
}

/// All workloads, both passes, each in a fresh process.
fn suite(args: &Args) -> ExitCode {
    let mut ok = true;
    for (name, why) in WORKLOADS {
        println!("\n=== {name} — {why}");
        for trace in [false, true] {
            match child(name, args, trace, true) {
                Ok(result) => {
                    ok &= result.correct;
                    println!(
                        "  -> {} correct={} attempted={} failed={}",
                        if trace {
                            "traced pass"
                        } else {
                            "end-to-end pass"
                        },
                        result.correct,
                        result.attempted,
                        result.failed
                    );
                }
                Err(why) => {
                    ok = false;
                    println!("  -> FAILED: {why}");
                }
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The end-to-end suite twice; prints, per workload x metric, how far the
/// two runs are apart relative to the metric's bound.
fn selfcheck(args: &Args) -> ExitCode {
    let mut ok = true;
    let mut unresolved = 0;
    println!(
        "{:<14} {:<18} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "run1", "run2", "rel.diff", "bound"
    );
    for (name, _) in WORKLOADS {
        let runs: Vec<ChildResult> = match (0..2).map(|_| child(name, args, false, false)).collect()
        {
            Ok(runs) => runs,
            Err(why) => {
                println!("{name}: FAILED: {why}");
                ok = false;
                continue;
            }
        };
        ok &= runs.iter().all(|r| r.correct);
        for d in END_TO_END {
            let a = runs[0].metrics.get(d.name).copied().unwrap_or(0.0);
            let b = runs[1].metrics.get(d.name).copied().unwrap_or(0.0);
            let rel = if a == 0.0 {
                0.0
            } else {
                (b - a).abs() / a.abs()
            };
            let bound = d.bound.unwrap_or(0.0);
            let verdict = if rel <= bound { "PASS" } else { "UNRESOLVED" };
            if rel > bound {
                unresolved += 1;
            }
            println!(
                "{name:<14} {:<18} {a:>14.6} {b:>14.6} {:>8.2}% {:>6.0}%  {verdict}",
                d.name,
                rel * 100.0,
                bound * 100.0
            );
        }
    }
    println!("selfcheck: correct={ok} unresolved={unresolved}");
    if ok && unresolved == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
