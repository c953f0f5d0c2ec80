//! `pruner-tune` — the command-line front end of the reproduction.
//!
//! ```text
//! pruner-tune --platform t4 --network R-50 --trials 800
//! pruner-tune --platform a100 --matmul 1,512,3072,768 --model ansor --no-psa
//! pruner-tune --platform titanv --network B-base --trials 500 \
//!             --show-schedules 3 --output run.json
//! ```

use pruner::cost::ModelKind;
use pruner::gpu::GpuSpec;
use pruner::ir::{zoo, Network, Workload};
use pruner::sketch::render;
use pruner::tuner::TunerConfig;
use pruner::Pruner;
use std::process::ExitCode;

/// Which measurement backend a campaign runs on.
#[derive(Clone, Copy, PartialEq)]
enum BackendChoice {
    /// The analytical GPU simulator (default).
    Sim,
    /// The executable CPU backend: candidates actually run, latency is
    /// wall-clock time.
    Cpu,
}

struct Args {
    platform: GpuSpec,
    backend: BackendChoice,
    network: Option<Network>,
    workloads: Vec<Workload>,
    trials: usize,
    seed: u64,
    threads: Option<usize>,
    model: ModelKind,
    use_psa: bool,
    fault_rate: f64,
    max_retries: Option<u32>,
    checkpoint: Option<String>,
    checkpoint_every: Option<usize>,
    resume: Option<String>,
    halt_after: Option<usize>,
    deadline: Option<f64>,
    watchdog_secs: Option<f64>,
    max_restarts: Option<u32>,
    show_schedules: usize,
    output: Option<String>,
    trace_out: Option<String>,
    report: bool,
    store: Option<String>,
    warm_start: bool,
}

const USAGE: &str = "\
pruner-tune: tune tensor programs on a simulated GPU

USAGE:
    pruner-tune --platform <p> (--network <name> | --matmul B,M,N,K | --conv2d N,C,H,W,CO,K,S,P)...
                [--backend sim|cpu]
                [--trials N] [--seed N] [--threads N] [--model <m>] [--no-psa]
                [--fault-rate R] [--max-retries N]
                [--checkpoint file.json] [--checkpoint-every N] [--halt-after N]
                [--deadline S] [--watchdog-secs S] [--max-restarts N]
                [--show-schedules N] [--output file.json]
                [--trace-out file.jsonl] [--report]
                [--store records.jsonl] [--warm-start on|off]
    pruner-tune --resume file.json [--checkpoint file.json] [--output file.json]
                [--trace-out file.jsonl] [--report] [--store records.jsonl]
    pruner-tune records (stats | compact | export) --store records.jsonl
                [--platform <p>] [--output dataset.json]
    pruner-tune serve (start | submit | status | cancel | predict | shutdown) ...
                (resident multi-tenant tuning daemon; see `serve --help`)
    pruner-tune fleet --state-dir <dir> --roster <p1,p2,...> ...
                (cross-hardware continual-learning fleet; see `fleet --help`)

OPTIONS:
    --platform <p>        k80 | t4 | titanv | a100 | orin
    --backend <b>         sim | cpu [default: sim]. `sim` measures on the
                          analytical GPU simulator; `cpu` actually executes
                          every candidate on the host CPU and reports wall
                          time (see docs/FIDELITY.md; worker threads come
                          from PRUNER_CPU_THREADS). --fault-rate only
                          applies to `sim`
    --network <name>      R-50 WR-50 I-V3 D-121 MB-V2 ViT DL-V3 DeTR B-base B-tiny R3D-18
    --matmul B,M,N,K      add a matmul task (repeatable)
    --conv2d N,C,H,W,CO,K,S,P  add a conv2d task (repeatable)
    --trials N            measurement budget [default: 800]
    --seed N              RNG seed [default: 42]
    --threads N           pipeline worker threads; results are identical at
                          any value [default: all host cores]
    --model <m>           pacm | ansor | xgb | tensetmlp | tlp | random [default: pacm]
    --no-psa              disable PSA search-space pruning
    --fault-rate R        inject deterministic hardware failures (compile
                          errors, timeouts, device resets, outlier timings)
                          into the measurement path at composite rate R
                          [default: 0]
    --max-retries N       measurement retries before a candidate is
                          quarantined [default: 2]
    --checkpoint <file>   write a crash-safe campaign checkpoint (atomic
                          rename) every --checkpoint-every rounds
    --checkpoint-every N  rounds between checkpoint writes [default: 5]
    --halt-after N        stop after N rounds (simulates a crash for
                          kill-and-resume testing)
    --resume <file>       continue an interrupted campaign from a checkpoint;
                          the result is byte-identical to an uninterrupted
                          run (campaign flags come from the checkpoint)
    --deadline S          run under the crash-safe supervisor with a wall-clock
                          budget of S host seconds; on expiry the campaign is
                          parked (checkpointed) and the exit code is 3
    --watchdog-secs S     supervisor watchdog: restart the campaign from its
                          last checkpoint if a round makes no progress for S
                          host seconds [default: 30]
    --max-restarts N      supervised restarts allowed before the campaign is
                          quarantined (exit code 4) [default: 3]
    --show-schedules N    print the N best tuned schedules as pseudo-TIR [default: 1]
    --output <file>       write the tuning result as JSON
    --trace-out <file>    record the campaign as versioned JSONL trace events
                          (funnel per round, spans, faults, counters) and
                          write them atomically to <file>
    --report              print an end-of-campaign summary table (funnel,
                          simulated-time ledger, host wall clock, faults)
                          to stderr
    --store <file>        persist every measurement verdict to an append-only
                          JSONL tuning-record store (see docs/STORE_FORMAT.md)
                          and warm-start from records of earlier campaigns on
                          the same platform
    --warm-start on|off   with --store, replay matching records before round 0
                          (pre-seed the measurement cache and pre-train the
                          cost model); `off` records without replaying
                          [default: on]

EXIT CODES:
    0                     campaign completed
    1                     usage or I/O error
    3                     supervised campaign hit --deadline and was parked
    4                     supervised campaign was quarantined (too many faults)

RECORDS SUBCOMMAND (inspect a store without tuning):
    stats                 print record counts per platform/workload/verdict
                          plus corruption counters from loading the file
    compact               rewrite the store atomically, dropping duplicate and
                          damaged lines
    export                convert successful records into a pruner-dataset
                          JSON file (--output) for offline pre-training;
                          --platform selects one platform when the store
                          holds several
";

fn parse_u64_list(s: &str, n: usize, flag: &str) -> Result<Vec<u64>, String> {
    let parts: Result<Vec<u64>, _> = s.split(',').map(|p| p.trim().parse()).collect();
    match parts {
        Ok(v) if v.len() == n => Ok(v),
        _ => Err(format!("{flag} expects {n} comma-separated integers, got `{s}`")),
    }
}


fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        platform: GpuSpec::t4(),
        backend: BackendChoice::Sim,
        network: None,
        workloads: Vec::new(),
        trials: 800,
        seed: 42,
        threads: None,
        model: ModelKind::Pacm,
        use_psa: true,
        fault_rate: 0.0,
        max_retries: None,
        checkpoint: None,
        checkpoint_every: None,
        resume: None,
        halt_after: None,
        deadline: None,
        watchdog_secs: None,
        max_restarts: None,
        show_schedules: 1,
        output: None,
        trace_out: None,
        report: false,
        store: None,
        warm_start: true,
    };
    let mut it = std::env::args().skip(1);
    let mut saw_platform = false;
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().ok_or_else(|| format!("{name} expects a value"))
        };
        match flag.as_str() {
            "--platform" => {
                let v = value("--platform")?;
                args.platform =
                    GpuSpec::by_name(&v).ok_or_else(|| format!("unknown platform `{v}`"))?;
                saw_platform = true;
            }
            "--backend" => {
                args.backend = match value("--backend")?.as_str() {
                    "sim" => BackendChoice::Sim,
                    "cpu" => BackendChoice::Cpu,
                    other => return Err(format!("--backend expects sim|cpu, got `{other}`")),
                }
            }
            "--network" => {
                let v = value("--network")?;
                args.network = Some(
                    zoo::by_short_name(&v, 1).ok_or_else(|| format!("unknown network `{v}`"))?,
                );
            }
            flag @ ("--matmul" | "--conv2d") => {
                parse_workload_flag(flag, &value(flag)?, &mut args.workloads)?;
            }
            "--trials" => {
                args.trials =
                    value("--trials")?.parse().map_err(|e| format!("--trials: {e}"))?
            }
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--threads" => {
                let n: usize =
                    value("--threads")?.parse().map_err(|e| format!("--threads: {e}"))?;
                if n == 0 {
                    return Err("--threads must be at least 1".into());
                }
                args.threads = Some(n);
            }
            "--model" => {
                args.model = match value("--model")?.as_str() {
                    "pacm" => ModelKind::Pacm,
                    "ansor" => ModelKind::Ansor,
                    "xgb" => ModelKind::AnsorXgb,
                    "tensetmlp" => ModelKind::TensetMlp,
                    "tlp" => ModelKind::Tlp,
                    "random" => ModelKind::Random,
                    other => return Err(format!("unknown model `{other}`")),
                }
            }
            "--no-psa" => args.use_psa = false,
            "--fault-rate" => {
                let r: f64 =
                    value("--fault-rate")?.parse().map_err(|e| format!("--fault-rate: {e}"))?;
                if !(0.0..=0.9).contains(&r) {
                    return Err("--fault-rate must be in [0, 0.9]".into());
                }
                args.fault_rate = r;
            }
            "--max-retries" => {
                args.max_retries = Some(
                    value("--max-retries")?
                        .parse()
                        .map_err(|e| format!("--max-retries: {e}"))?,
                )
            }
            "--checkpoint" => args.checkpoint = Some(value("--checkpoint")?),
            "--checkpoint-every" => {
                args.checkpoint_every = Some(
                    value("--checkpoint-every")?
                        .parse()
                        .map_err(|e| format!("--checkpoint-every: {e}"))?,
                )
            }
            "--resume" => args.resume = Some(value("--resume")?),
            "--halt-after" => {
                args.halt_after = Some(
                    value("--halt-after")?
                        .parse()
                        .map_err(|e| format!("--halt-after: {e}"))?,
                )
            }
            "--deadline" => {
                let s: f64 =
                    value("--deadline")?.parse().map_err(|e| format!("--deadline: {e}"))?;
                if s <= 0.0 {
                    return Err("--deadline must be positive".into());
                }
                args.deadline = Some(s);
            }
            "--watchdog-secs" => {
                let s: f64 = value("--watchdog-secs")?
                    .parse()
                    .map_err(|e| format!("--watchdog-secs: {e}"))?;
                if s <= 0.0 {
                    return Err("--watchdog-secs must be positive".into());
                }
                args.watchdog_secs = Some(s);
            }
            "--max-restarts" => {
                args.max_restarts = Some(
                    value("--max-restarts")?
                        .parse()
                        .map_err(|e| format!("--max-restarts: {e}"))?,
                )
            }
            "--show-schedules" => {
                args.show_schedules = value("--show-schedules")?
                    .parse()
                    .map_err(|e| format!("--show-schedules: {e}"))?
            }
            "--output" => args.output = Some(value("--output")?),
            "--trace-out" => args.trace_out = Some(value("--trace-out")?),
            "--report" => args.report = true,
            "--store" => args.store = Some(value("--store")?),
            "--warm-start" => {
                args.warm_start = match value("--warm-start")?.as_str() {
                    "on" => true,
                    "off" => false,
                    other => return Err(format!("--warm-start expects on|off, got `{other}`")),
                }
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.resume.is_none() {
        if !saw_platform {
            return Err("--platform is required".into());
        }
        if args.network.is_none() && args.workloads.is_empty() {
            return Err("give --network or at least one --matmul/--conv2d".into());
        }
    }
    if args.backend == BackendChoice::Cpu && args.fault_rate > 0.0 {
        return Err("--fault-rate applies only to --backend sim (cpu faults are real)".into());
    }
    let supervised =
        args.deadline.is_some() || args.watchdog_secs.is_some() || args.max_restarts.is_some();
    if supervised && args.resume.is_some() {
        return Err(
            "supervision flags do not combine with --resume; point --checkpoint at the \
             file instead (the supervisor resumes from it automatically)"
                .into(),
        );
    }
    Ok(args)
}

/// Applies the resume-time flags (new checkpoint path, trace recorder,
/// record store) and runs a restored campaign, for either backend.
fn run_resumed<B: pruner::gpu::Backend>(
    mut pruner: Pruner<B>,
    args: &Args,
    trace: &Option<pruner::trace::TraceHandle>,
) -> Result<pruner::tuner::TuningResult, String> {
    if let Some(path) = &args.checkpoint {
        pruner.tuner_mut().set_checkpoint_path(path.clone());
    }
    if let Some(trace) = trace {
        pruner.tuner_mut().set_recorder(Box::new(trace.clone()));
    }
    if let Some(path) = &args.store {
        // Resumed campaigns never replay (they continue mid-search);
        // the store keeps recording fresh verdicts.
        let store = pruner::store::Store::open(path)
            .map_err(|e| format!("error opening store {path}: {e}"))?;
        pruner.tuner_mut().set_store(store, args.warm_start);
    }
    Ok(pruner.tune())
}

/// Builds the campaign from the parsed flags — shared by the plain and
/// supervised paths (the supervisor calls it again on a restart that
/// found no checkpoint on disk yet).
fn make_builder(
    args: &Args,
    trace: &Option<pruner::trace::TraceHandle>,
) -> pruner::PrunerBuilder {
    let mut builder = Pruner::builder(args.platform.clone())
        .config(TunerConfig::default())
        .model(args.model)
        .seed(args.seed)
        .trials(args.trials)
        .fault_rate(args.fault_rate);
    if let Some(threads) = args.threads {
        builder = builder.threads(threads);
    }
    if !args.use_psa {
        builder = builder.without_psa();
    }
    if let Some(retries) = args.max_retries {
        builder = builder.max_retries(retries);
    }
    if let Some(path) = &args.checkpoint {
        builder = builder.checkpoint(path);
    }
    if let Some(every) = args.checkpoint_every {
        builder = builder.checkpoint_every(every);
    }
    if let Some(halt) = args.halt_after {
        builder = builder.halt_after(halt);
    }
    if let Some(path) = &args.store {
        builder = builder.store(path).warm_start(args.warm_start);
    }
    if let Some(trace) = trace {
        builder = builder.recorder(Box::new(trace.clone()));
    }
    if let Some(net) = &args.network {
        builder = builder.network(net);
    }
    for wl in &args.workloads {
        builder = builder.workload(wl.clone());
    }
    builder
}

/// Runs a campaign under the crash-safe supervisor (`--deadline` /
/// `--watchdog-secs` / `--max-restarts`). Returns the result on
/// completion, or the process exit code on a deadline park (3) or
/// quarantine (4).
fn run_supervised<B, F>(
    args: &Args,
    trace: &Option<pruner::trace::TraceHandle>,
    make_fresh: F,
) -> Result<pruner::tuner::TuningResult, ExitCode>
where
    B: pruner::gpu::Backend,
    F: Fn(&Args, &Option<pruner::trace::TraceHandle>) -> Pruner<B>,
{
    use pruner::tuner::{CampaignOutcome, Supervisor, SupervisorConfig, Tuner};
    let cfg = SupervisorConfig {
        wall_deadline_s: args.deadline,
        watchdog_timeout_s: args.watchdog_secs.unwrap_or(30.0),
        max_restarts: args.max_restarts.unwrap_or(3),
        seed: args.seed,
        checkpoint: args.checkpoint.as_ref().map(std::path::PathBuf::from),
        ..SupervisorConfig::default()
    };
    let mut supervisor = Supervisor::new(cfg);
    if let Some(trace) = trace {
        supervisor.set_recorder(Box::new(trace.clone()));
    }
    // Re-attach what a checkpoint does not carry — the checkpoint path,
    // the trace recorder and the record store (a resumed campaign
    // records without replaying).
    let attach = |mut tuner: Tuner<B>| -> std::io::Result<Tuner<B>> {
        if let Some(path) = &args.checkpoint {
            tuner.set_checkpoint_path(path.clone());
        }
        if let Some(tr) = trace {
            tuner.set_recorder(Box::new(tr.clone()));
        }
        if let Some(path) = &args.store {
            let store = pruner::store::Store::open(path)
                .map_err(|e| std::io::Error::new(e.kind(), format!("store {path}: {e}")))?;
            tuner.set_store(store, args.warm_start);
        }
        Ok(tuner)
    };
    let run = supervisor.run(|ckpt| match ckpt {
        // A restart: rebuild from the checkpoint the supervisor loaded.
        Some(ckpt) => attach(Tuner::<B>::from_checkpoint_backend(ckpt)?),
        // First attempt: pick up a previously parked campaign if the
        // checkpoint file already exists (this is how a deadline-parked
        // run is continued), otherwise start fresh.
        None => match args.checkpoint.as_deref().filter(|p| std::path::Path::new(p).exists()) {
            Some(path) => attach(Tuner::<B>::resume_backend(path)?),
            None => Ok(make_fresh(args, trace).into_tuner()),
        },
    });
    for fault in &run.faults {
        eprintln!("supervisor: fault: {fault}");
    }
    if run.restarts > 0 {
        eprintln!("supervisor: recovered through {} restart(s)", run.restarts);
    }
    match run.outcome {
        CampaignOutcome::Completed => Ok(run.result.expect("completed campaigns carry a result")),
        CampaignOutcome::WallDeadlineExceeded | CampaignOutcome::SimDeadlineExceeded => {
            match &run.result {
                Some(result) => println!(
                    "deadline exceeded: campaign parked at best {:.4} ms after {} trials{}",
                    result.best_latency_s * 1e3,
                    result.stats.trials,
                    args.checkpoint
                        .as_deref()
                        .map(|p| format!(" (resume from {p})"))
                        .unwrap_or_default(),
                ),
                None => eprintln!("deadline exceeded: campaign could not be parked"),
            }
            Err(ExitCode::from(3))
        }
        CampaignOutcome::Quarantined => {
            eprintln!(
                "supervisor: campaign quarantined after {} fault(s)",
                run.faults.len()
            );
            Err(ExitCode::from(4))
        }
        // The one-shot CLI installs no external stop signal, so a
        // cancellation can only come from a wrapping service; treat it
        // like a park (the checkpoint, if any, is resumable).
        CampaignOutcome::Cancelled => {
            eprintln!("supervisor: campaign cancelled");
            Err(ExitCode::from(3))
        }
    }
}

/// Writes `--trace-out` and prints `--report`; returns `false` when the
/// trace write failed.
fn finish_trace(args: &Args, trace: &Option<pruner::trace::TraceHandle>) -> bool {
    let Some(trace) = trace else { return true };
    if let Some(path) = &args.trace_out {
        if let Err(e) = trace.write_atomic(std::path::Path::new(path)) {
            eprintln!("error writing trace {path}: {e}");
            return false;
        }
        println!("trace written to {path} ({} events)", trace.len());
    }
    if args.report {
        eprint!("{}", trace.report().render());
    }
    true
}

/// `pruner-tune records <mode>` — inspect/compact/export a tuning-record
/// store without running a campaign.
fn records_main(argv: &[String]) -> Result<(), String> {
    use pruner::store::Store;

    let mode = argv.first().map(String::as_str).unwrap_or_default();
    if !matches!(mode, "stats" | "compact" | "export") {
        return Err(format!("records expects stats|compact|export, got `{mode}`"));
    }
    let mut store_path = None;
    let mut platform: Option<GpuSpec> = None;
    let mut output = None;
    let mut it = argv[1..].iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().cloned().ok_or_else(|| format!("{name} expects a value"))
        };
        match flag.as_str() {
            "--store" => store_path = Some(value("--store")?),
            "--platform" => {
                let v = value("--platform")?;
                platform =
                    Some(GpuSpec::by_name(&v).ok_or_else(|| format!("unknown platform `{v}`"))?);
            }
            "--output" => output = Some(value("--output")?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let path = store_path.ok_or("records needs --store <file>")?;
    let store = Store::open(&path).map_err(|e| format!("cannot open store {path}: {e}"))?;
    let stats = store.replay_stats();

    match mode {
        "stats" => {
            println!("store    : {path}");
            println!(
                "records  : {} loaded from {} lines ({} skipped: {} duplicate, {} corrupt, {} unknown-version, {} fingerprint-mismatched)",
                stats.loaded,
                stats.total_lines,
                stats.skipped(),
                stats.duplicates,
                stats.corrupt_lines,
                stats.version_skips,
                stats.fingerprint_mismatches
            );
            // Per (platform, workload) verdict counts, first-seen order.
            let mut order: Vec<(String, String)> = Vec::new();
            let mut counts: std::collections::HashMap<(String, String), (usize, usize)> =
                std::collections::HashMap::new();
            for r in store.records() {
                let key = (r.spec.clone(), r.workload_fp.clone());
                let entry = counts.entry(key.clone()).or_insert_with(|| {
                    order.push(key);
                    (0, 0)
                });
                if r.outcome.is_success() {
                    entry.0 += 1;
                } else {
                    entry.1 += 1;
                }
            }
            for key in &order {
                let (ok, failed) = counts[key];
                println!("  {:<14} {:<40} {ok:>6} ok {failed:>6} failed", key.0, key.1);
            }
        }
        "compact" => {
            store.flush().map_err(|e| format!("cannot rewrite {path}: {e}"))?;
            println!(
                "compacted {path}: kept {} records, dropped {} lines",
                store.len(),
                stats.skipped()
            );
        }
        "export" => {
            let out = output.ok_or("export needs --output <dataset.json>")?;
            let wanted_fp = platform.as_ref().map(|spec| spec.fingerprint());
            let successes: Vec<_> = store
                .records()
                .iter()
                .filter(|r| wanted_fp.as_deref().is_none_or(|fp| r.spec_fp == fp))
                .filter_map(|r| r.outcome.latency_s().map(|l| (r, l)))
                .collect();
            let mut platforms: Vec<&str> =
                successes.iter().map(|(r, _)| r.spec.as_str()).collect();
            platforms.sort_unstable();
            platforms.dedup();
            let name = match (platform.as_ref(), platforms.as_slice()) {
                (Some(spec), _) => spec.name.clone(),
                (None, [single]) => (*single).to_string(),
                (None, []) => return Err("no successful records to export".into()),
                (None, many) => {
                    return Err(format!(
                        "store holds {} platforms ({}); pick one with --platform",
                        many.len(),
                        many.join(", ")
                    ))
                }
            };
            let ds = pruner::dataset::Dataset::from_measurements(
                name,
                successes.into_iter().map(|(r, l)| (r.program.clone(), l)),
            );
            if ds.num_programs() == 0 {
                return Err("no successful records to export".into());
            }
            ds.save_json(&out).map_err(|e| format!("cannot write {out}: {e}"))?;
            println!(
                "exported {} programs across {} workloads to {out}",
                ds.num_programs(),
                ds.entries.len()
            );
        }
        _ => unreachable!(),
    }
    Ok(())
}

const SERVE_USAGE: &str = "\
pruner-tune serve: resident multi-tenant tuning daemon (see docs/SERVING.md)

USAGE:
    pruner-tune serve start --socket <path> --state-dir <dir>
                [--workers N] [--budget N] [--model-dir <dir>]
                [--predict-threads N]
    pruner-tune serve submit --socket <path> --tenant <name> --platform <p>
                (--network <name> | --matmul B,M,N,K | --conv2d N,C,H,W,CO,K,S,P)...
                [--trials N] [--seed N] [--threads N] [--no-psa]
                [--checkpoint-every N] [--model <name>]
    pruner-tune serve status --socket <path> --campaign <id> [--output file.json]
    pruner-tune serve cancel --socket <path> --campaign <id>
    pruner-tune serve predict --socket <path> --model <name> --matmul B,M,N,K...
    pruner-tune serve shutdown --socket <path>

OPTIONS:
    --socket <path>       Unix domain socket the daemon answers on
    --state-dir <dir>     daemon state root: shared store, per-tenant campaign
                          directories (checkpoints, manifests, results)
    --workers N           concurrent campaign workers [default: 2]
    --budget N            max concurrent campaigns per tenant [default: 1]
    --model-dir <dir>     directory of pre-trained ModelSnapshot JSON files;
                          `--model <name>` resolves <dir>/<name>.json first,
                          then the built-in model kinds
    --predict-threads N   predict_batch parallelism of the shared-model
                          batchers [default: 1]
    --tenant <name>       tenant the campaign belongs to ([a-zA-Z0-9_-])
    --model <name>        submit: share the named frozen daemon model across
                          tenants (predictions are batched); omit to train a
                          fresh per-campaign PaCM, byte-identical to the
                          one-shot CLI. predict: the model to score against
    --campaign <id>       campaign id returned by submit
    --output <file>       status: write the finished campaign's result JSON

EXIT CODES:
    0  request served (status: campaign exists, any state)
    1  usage error, connection failure, or daemon-side error reply

A daemon restarted on the same --state-dir resumes every in-flight
campaign from its checkpoint; results are byte-identical to uninterrupted
runs.
";

/// Parses and checks the repeated workload flags every subcommand shares
/// (`tune`, `serve submit`, `serve predict`, `fleet`). Returns whether
/// `flag` was one of them. Shapes the IR would panic on — a zero extent,
/// stride or kernel, a kernel wider than the padded input — are usage
/// errors here.
fn parse_workload_flag(
    flag: &str,
    value: &str,
    workloads: &mut Vec<Workload>,
) -> Result<bool, String> {
    match flag {
        "--matmul" => {
            let v = parse_u64_list(value, 4, "--matmul")?;
            if v.contains(&0) {
                return Err(format!("--matmul extents must be at least 1, got `{value}`"));
            }
            workloads.push(Workload::matmul(v[0], v[1], v[2], v[3]));
            Ok(true)
        }
        "--conv2d" => {
            let v = parse_u64_list(value, 8, "--conv2d")?;
            let padded = v[2].min(v[3]).saturating_add(v[7].saturating_mul(2));
            if v[..7].contains(&0) || v[5] > padded {
                return Err(format!(
                    "--conv2d N,C,H,W,CO,K,S must be at least 1 and K fit the padded input, got `{value}`"
                ));
            }
            workloads.push(Workload::conv2d(v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7]));
            Ok(true)
        }
        _ => Ok(false),
    }
}

const FLEET_USAGE: &str = "\
pruner-tune fleet: tune one workload suite across an ordered roster of
devices with a shared continually-learning cost model (see docs/FLEET.md)

USAGE:
    pruner-tune fleet --state-dir <dir> --roster <p1,p2,...>
                (--matmul B,M,N,K | --conv2d N,C,H,W,CO,K,S,P)...
                [--roster-file specs.json]
                [--trials N] [--seed N] [--threads N] [--momentum F]
                [--pretrain N] [--probes N] [--store records.jsonl]
                [--halt-after-stage N]
                [--watchdog-secs S] [--max-restarts N]
                [--output fleet.json] [--trace-out file.jsonl] [--report]

OPTIONS:
    --state-dir <dir>     fleet state: the resume manifest (fleet.json) and
                          per-stage supervisor checkpoints. Rerunning with
                          the same directory resumes mid-roster,
                          byte-identically to an uninterrupted run
    --roster <list>       comma-separated device presets, in tuning order:
                          k80 | t4 | titanv | a100 | orin. A device may
                          repeat (its scoring head is restored on revisit)
    --roster-file <file>  JSON array of full GpuSpec objects appended after
                          the --roster presets (synthetic devices)
    --matmul B,M,N,K      add a matmul task to the suite (repeatable)
    --conv2d N,C,H,W,CO,K,S,P  add a conv2d task (repeatable)
    --trials N            measurement budget per stage [default: 800]
    --seed N              RNG seed (campaigns, pre-training, probes) [default: 42]
    --threads N           pipeline worker threads; fleet results are
                          byte-identical at any value [default: all host cores]
    --momentum F          MTL momentum folding each stage into the shared
                          Siamese trunk [default: 0.99]
    --pretrain N          pre-training samples per workload drawn on the
                          first roster device [default: 64]
    --probes N            probe programs per workload per device for the
                          anti-forgetting evaluation [default: 32]
    --store <file>        shared measurement store; stages warm-start from
                          records of their own device fingerprint only
    --halt-after-stage N  park the fleet after N completed stages (exit 3);
                          rerun with the same --state-dir to resume
    --watchdog-secs S     per-stage supervisor watchdog [default: 30]
    --max-restarts N      per-stage restarts before quarantine [default: 3]
    --output <file>       write the FleetResult (per-stage results plus the
                          transfer/forgetting report) as JSON
    --trace-out <file>    write fleet.* / supervisor.* / campaign trace
                          events as JSONL
    --report              print the end-of-run summary table (includes the
                          fleet section) to stderr

EXIT CODES:
    0    roster completed
    1    usage or I/O error
    3    fleet parked mid-roster (--halt-after-stage or stage deadline)
";

/// `pruner-tune fleet` — run a cross-hardware continual-learning fleet.
fn fleet_main(argv: &[String]) -> Result<ExitCode, String> {
    use pruner::{Fleet, FleetConfig, FleetStatus};

    if matches!(argv.first().map(String::as_str), Some("--help" | "-h" | "help")) {
        print!("{FLEET_USAGE}");
        return Ok(ExitCode::SUCCESS);
    }
    let mut state_dir: Option<String> = None;
    let mut roster: Vec<GpuSpec> = Vec::new();
    let mut roster_file: Option<String> = None;
    let mut workloads: Vec<Workload> = Vec::new();
    let mut config = TunerConfig::default();
    let mut trials: Option<usize> = None;
    let mut momentum: f32 = 0.99;
    let mut pretrain: usize = 64;
    let mut probes: usize = 32;
    let mut store: Option<String> = None;
    let mut halt_after_stage: Option<usize> = None;
    let mut watchdog_secs: f64 = 30.0;
    let mut max_restarts: u32 = 3;
    let mut output: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut report = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().cloned().ok_or_else(|| format!("{name} expects a value"))
        };
        match flag.as_str() {
            "--state-dir" => state_dir = Some(value("--state-dir")?),
            "--roster" => {
                for name in value("--roster")?.split(',') {
                    let name = name.trim();
                    roster.push(
                        GpuSpec::by_name(name)
                            .ok_or_else(|| format!("unknown roster platform `{name}`"))?,
                    );
                }
            }
            "--roster-file" => roster_file = Some(value("--roster-file")?),
            "--trials" => {
                trials = Some(value("--trials")?.parse().map_err(|e| format!("--trials: {e}"))?)
            }
            "--seed" => {
                config.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--threads" => {
                config.threads = value("--threads")?
                    .parse::<usize>()
                    .map_err(|e| format!("--threads: {e}"))?
                    .max(1)
            }
            "--momentum" => {
                momentum = value("--momentum")?.parse().map_err(|e| format!("--momentum: {e}"))?
            }
            "--pretrain" => {
                pretrain = value("--pretrain")?.parse().map_err(|e| format!("--pretrain: {e}"))?
            }
            "--probes" => {
                probes = value("--probes")?.parse().map_err(|e| format!("--probes: {e}"))?
            }
            "--store" => store = Some(value("--store")?),
            "--halt-after-stage" => {
                halt_after_stage = Some(
                    value("--halt-after-stage")?
                        .parse()
                        .map_err(|e| format!("--halt-after-stage: {e}"))?,
                )
            }
            "--watchdog-secs" => {
                watchdog_secs = value("--watchdog-secs")?
                    .parse()
                    .map_err(|e| format!("--watchdog-secs: {e}"))?
            }
            "--max-restarts" => {
                max_restarts = value("--max-restarts")?
                    .parse()
                    .map_err(|e| format!("--max-restarts: {e}"))?
            }
            "--output" => output = Some(value("--output")?),
            "--trace-out" => trace_out = Some(value("--trace-out")?),
            "--report" => report = true,
            other if parse_workload_flag(other, &value(other)?, &mut workloads)? => {}
            other => return Err(format!("unknown fleet flag `{other}`")),
        }
    }
    let state_dir = state_dir.ok_or("fleet needs --state-dir <dir>")?;
    if let Some(path) = &roster_file {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e}"))?;
        let extra: Vec<GpuSpec> =
            serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
        roster.extend(extra);
    }
    if roster.is_empty() {
        return Err("fleet needs --roster and/or --roster-file".into());
    }
    if workloads.is_empty() {
        return Err("fleet needs at least one --matmul/--conv2d".into());
    }
    if let Some(trials) = trials {
        if trials < config.measure_per_round {
            return Err(format!("need at least {} trials", config.measure_per_round));
        }
        config.rounds = trials / config.measure_per_round;
    }

    let supervisor = pruner::tuner::SupervisorConfig {
        watchdog_timeout_s: watchdog_secs,
        max_restarts,
        ..Default::default()
    };
    let cfg = FleetConfig {
        roster,
        workloads: workloads.into_iter().map(|wl| (wl, 1)).collect(),
        tuner: config,
        momentum,
        pretrain_per_workload: pretrain,
        probes_per_workload: probes,
        pretrain_epochs: 3,
        seed: config.seed,
        state_dir: state_dir.clone().into(),
        store: store.map(Into::into),
        halt_after_stages: halt_after_stage,
        supervisor,
    };
    println!("fleet    : {} device(s), state in {state_dir}", cfg.roster.len());
    for (i, spec) in cfg.roster.iter().enumerate() {
        println!("stage {i}  : {}", spec.name);
    }

    let trace = (trace_out.is_some() || report).then(pruner::trace::TraceHandle::new);
    let roster_len = cfg.roster.len();
    let mut fleet = Fleet::new(cfg);
    if let Some(t) = &trace {
        fleet.set_recorder(Box::new(t.clone()));
    }
    let run = fleet.run().map_err(|e| format!("fleet error: {e}"))?;

    let finish = |trace: &Option<pruner::trace::TraceHandle>| -> Result<(), String> {
        if let (Some(trace), Some(path)) = (trace, &trace_out) {
            trace
                .write_atomic(std::path::Path::new(path))
                .map_err(|e| format!("error writing trace {path}: {e}"))?;
            println!("trace written to {path} ({} events)", trace.len());
        }
        if report {
            if let Some(trace) = trace {
                eprint!("{}", trace.report().render());
            }
        }
        Ok(())
    };

    match run.status {
        FleetStatus::Parked => {
            println!(
                "parked   : {} of {} stage(s) done; rerun with the same --state-dir to resume",
                run.stages_done, roster_len
            );
            finish(&trace)?;
            Ok(ExitCode::from(3))
        }
        FleetStatus::Completed => {
            let result = run.result.expect("completed fleet has a result");
            for d in &result.devices {
                println!(
                    "stage {}  : {} best {:.4} ms over {} trials",
                    d.stage,
                    d.name,
                    d.best_latency_s * 1e3,
                    d.trials
                );
            }
            for f in &result.report.forgetting {
                println!(
                    "forget   : {} {:+.4} (after-training {:.4} -> final {:.4})",
                    f.device, f.delta, f.score_after_training, f.final_score
                );
            }
            if let Some(path) = &output {
                std::fs::File::create(path)
                    .map_err(|e| e.to_string())
                    .and_then(|f| {
                        serde_json::to_writer_pretty(f, &result).map_err(|e| e.to_string())
                    })
                    .map_err(|e| format!("error writing {path}: {e}"))?;
                println!("result written to {path}");
            }
            finish(&trace)?;
            Ok(ExitCode::SUCCESS)
        }
    }
}

/// `pruner-tune serve <verb>` — run or talk to the tuning daemon.
fn serve_main(argv: &[String]) -> Result<ExitCode, String> {
    use pruner::serve::{Client, Daemon, Request, Response, ServeConfig};
    use std::time::Duration;

    let verb = argv.first().map(String::as_str).unwrap_or_default();
    if matches!(verb, "--help" | "-h" | "help" | "") {
        print!("{SERVE_USAGE}");
        return Ok(ExitCode::SUCCESS);
    }
    // Flag soup shared by all verbs; each verb checks what it needs.
    let mut socket: Option<String> = None;
    let mut state_dir: Option<String> = None;
    let mut workers: usize = 2;
    let mut budget: usize = 1;
    let mut model_dir: Option<String> = None;
    let mut predict_threads: usize = 1;
    let mut tenant: Option<String> = None;
    let mut campaign: Option<String> = None;
    let mut model: Option<String> = None;
    let mut output: Option<String> = None;
    let mut platform: Option<GpuSpec> = None;
    let mut network: Option<Network> = None;
    let mut workloads: Vec<Workload> = Vec::new();
    let mut config = TunerConfig::default();
    let mut trials: Option<usize> = None;
    let mut it = argv[1..].iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().cloned().ok_or_else(|| format!("{name} expects a value"))
        };
        match flag.as_str() {
            "--socket" => socket = Some(value("--socket")?),
            "--state-dir" => state_dir = Some(value("--state-dir")?),
            "--workers" => {
                workers = value("--workers")?.parse().map_err(|e| format!("--workers: {e}"))?
            }
            "--budget" => {
                budget = value("--budget")?.parse().map_err(|e| format!("--budget: {e}"))?
            }
            "--model-dir" => model_dir = Some(value("--model-dir")?),
            "--predict-threads" => {
                predict_threads = value("--predict-threads")?
                    .parse()
                    .map_err(|e| format!("--predict-threads: {e}"))?
            }
            "--tenant" => tenant = Some(value("--tenant")?),
            "--campaign" => campaign = Some(value("--campaign")?),
            "--model" => model = Some(value("--model")?),
            "--output" => output = Some(value("--output")?),
            "--platform" => {
                let v = value("--platform")?;
                platform =
                    Some(GpuSpec::by_name(&v).ok_or_else(|| format!("unknown platform `{v}`"))?);
            }
            "--network" => {
                let v = value("--network")?;
                network = Some(
                    zoo::by_short_name(&v, 1).ok_or_else(|| format!("unknown network `{v}`"))?,
                );
            }
            "--trials" => {
                trials = Some(value("--trials")?.parse().map_err(|e| format!("--trials: {e}"))?)
            }
            "--seed" => {
                config.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--threads" => {
                config.threads = value("--threads")?
                    .parse::<usize>()
                    .map_err(|e| format!("--threads: {e}"))?
                    .max(1)
            }
            "--no-psa" => config.use_psa = false,
            "--checkpoint-every" => {
                config.checkpoint_every = value("--checkpoint-every")?
                    .parse()
                    .map_err(|e| format!("--checkpoint-every: {e}"))?
            }
            other if parse_workload_flag(other, &value(other)?, &mut workloads)? => {}
            other => return Err(format!("unknown serve flag `{other}`")),
        }
    }
    let socket = socket.ok_or("serve needs --socket <path>")?;

    if verb == "start" {
        let state_dir = state_dir.ok_or("serve start needs --state-dir <dir>")?;
        let cfg = ServeConfig {
            socket: socket.clone().into(),
            state_dir: state_dir.into(),
            workers,
            per_tenant_budget: budget,
            model_dir: model_dir.map(Into::into),
            predict_threads,
        };
        let daemon = Daemon::start(cfg).map_err(|e| format!("cannot start daemon: {e}"))?;
        if daemon.resumed() > 0 {
            println!("resumed  : {} in-flight campaign(s)", daemon.resumed());
        }
        println!("serving  : {socket}");
        daemon.wait_shutdown().map_err(|e| format!("shutdown error: {e}"))?;
        println!("daemon stopped");
        return Ok(ExitCode::SUCCESS);
    }

    let mut client = Client::connect_with_retry(&socket, Duration::from_secs(5))
        .map_err(|e| format!("cannot connect to {socket}: {e}"))?;
    let request = match verb {
        "submit" => {
            let tenant = tenant.ok_or("serve submit needs --tenant <name>")?;
            let platform = platform.ok_or("serve submit needs --platform <p>")?;
            if let Some(trials) = trials {
                if trials < config.measure_per_round {
                    return Err(format!("need at least {} trials", config.measure_per_round));
                }
                config.rounds = trials / config.measure_per_round;
            }
            let mut pairs: Vec<(Workload, u64)> =
                workloads.into_iter().map(|wl| (wl, 1)).collect();
            if let Some(net) = &network {
                for sg in net.subgraphs() {
                    pairs.push((sg.workload.clone(), sg.weight));
                }
            }
            if pairs.is_empty() {
                return Err("serve submit needs --network or --matmul/--conv2d".into());
            }
            Request::SubmitCampaign { tenant, spec: platform, workloads: pairs, config, model }
        }
        "status" => Request::Status {
            campaign: campaign.ok_or("serve status needs --campaign <id>")?,
        },
        "cancel" => Request::Cancel {
            campaign: campaign.ok_or("serve cancel needs --campaign <id>")?,
        },
        "predict" => {
            if workloads.is_empty() {
                return Err("serve predict needs at least one --matmul/--conv2d".into());
            }
            Request::PredictOnly {
                model: model.ok_or("serve predict needs --model <name>")?,
                programs: workloads.iter().map(pruner::sketch::Program::fallback).collect(),
            }
        }
        "shutdown" => Request::Shutdown,
        other => return Err(format!("unknown serve verb `{other}`")),
    };
    let response = client.call(&request).map_err(|e| format!("request failed: {e}"))?;
    match response {
        Response::Submitted { campaign } => {
            println!("submitted: {campaign}");
            Ok(ExitCode::SUCCESS)
        }
        Response::Status { campaign, state, best_latency_s, result } => {
            match best_latency_s {
                Some(best) => println!("{campaign}: {state} (best {:.4} ms)", best * 1e3),
                None => println!("{campaign}: {state}"),
            }
            if let (Some(path), Some(json)) = (&output, &result) {
                std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
                println!("result written to {path}");
            }
            Ok(ExitCode::SUCCESS)
        }
        Response::Cancelled { campaign } => {
            println!("cancelled: {campaign}");
            Ok(ExitCode::SUCCESS)
        }
        Response::Scores { scores } => {
            for (i, score) in scores.iter().enumerate() {
                println!("program {i}: {score}");
            }
            Ok(ExitCode::SUCCESS)
        }
        Response::ShuttingDown => {
            println!("daemon shutting down");
            Ok(ExitCode::SUCCESS)
        }
        Response::Error { message } => Err(format!("daemon error: {message}")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("serve") {
        return match serve_main(&argv[1..]) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("error: {e}\n\n{SERVE_USAGE}");
                ExitCode::FAILURE
            }
        };
    }
    if argv.first().map(String::as_str) == Some("fleet") {
        return match fleet_main(&argv[1..]) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("error: {e}\n\n{FLEET_USAGE}");
                ExitCode::FAILURE
            }
        };
    }
    if argv.first().map(String::as_str) == Some("records") {
        return match records_main(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}\n\n{USAGE}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    // One shared trace buffer serves --trace-out and --report; the tuner
    // gets a clone, this clone stays behind to render the results.
    let trace = (args.trace_out.is_some() || args.report).then(pruner::trace::TraceHandle::new);

    let result = if let Some(ckpt) = &args.resume {
        println!("resuming : {ckpt}");
        // The checkpoint embeds its backend tag; resuming with the wrong
        // --backend fails cleanly instead of silently switching meters.
        let run = match args.backend {
            BackendChoice::Sim => Pruner::resume(ckpt)
                .map_err(|e| format!("error resuming from {ckpt}: {e}"))
                .and_then(|p| run_resumed(p, &args, &trace)),
            BackendChoice::Cpu => Pruner::resume_cpu(ckpt)
                .map_err(|e| format!("error resuming from {ckpt}: {e}"))
                .and_then(|p| run_resumed(p, &args, &trace)),
        };
        match run {
            Ok(result) => result,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        println!("platform : {}", args.platform);
        if args.backend == BackendChoice::Cpu {
            println!("backend  : cpu (executable; latencies are host wall time)");
        }
        if let Some(path) = &args.store {
            println!("store    : {path} (warm start {})", if args.warm_start { "on" } else { "off" });
        }
        if let Some(net) = &args.network {
            println!("network  : {net}");
        }
        for wl in &args.workloads {
            println!("workload : {wl}");
        }
        let supervised = args.deadline.is_some()
            || args.watchdog_secs.is_some()
            || args.max_restarts.is_some();
        if supervised {
            let run = match args.backend {
                BackendChoice::Sim => {
                    run_supervised(&args, &trace, |a, t| make_builder(a, t).build())
                }
                BackendChoice::Cpu => {
                    run_supervised(&args, &trace, |a, t| make_builder(a, t).build_cpu())
                }
            };
            match run {
                Ok(result) => result,
                Err(code) => {
                    // Deadline parks and quarantines still flush the
                    // trace — the supervisor.* records are the evidence.
                    finish_trace(&args, &trace);
                    return code;
                }
            }
        } else {
            let builder = make_builder(&args, &trace);
            match args.backend {
                BackendChoice::Sim => builder.build().tune(),
                BackendChoice::Cpu => builder.build_cpu().tune(),
            }
        }
    };
    println!(
        "\nbest latency : {:.4} ms   ({} trials, {:.0} simulated search seconds)",
        result.best_latency_s * 1e3,
        result.stats.trials,
        result.stats.total_s()
    );
    if result.stats.failures > 0 {
        println!(
            "faults       : {} failed attempts ({} compile, {} timeout, {} reset, {} outlier), {} retried, {} quarantined, {:.0}s lost",
            result.stats.failures,
            result.stats.compile_errors,
            result.stats.timeouts,
            result.stats.device_resets,
            result.stats.outliers,
            result.stats.retries,
            result.stats.quarantined,
            result.stats.fault_time_s + result.stats.retry_backoff_s
        );
    }

    if let Some(path) = &args.store {
        match pruner::store::Store::open(path) {
            Ok(store) => println!("store        : {} records in {path}", store.len()),
            Err(e) => eprintln!("warning: cannot re-read store {path}: {e}"),
        }
    }

    // Best schedules, slowest tasks first (they dominate the end-to-end).
    let mut order: Vec<usize> = (0..result.per_task_best.len()).collect();
    order.sort_by(|&a, &b| {
        result.per_task_best[b].1.partial_cmp(&result.per_task_best[a].1).unwrap()
    });
    for &i in order.iter().take(args.show_schedules) {
        let (wl, lat) = &result.per_task_best[i];
        println!("\n--- {} @ {:.4} ms ---", wl, lat * 1e3);
        if let Some(prog) = &result.best_programs[i] {
            print!("{}", render::render(prog));
        }
    }

    if let Some(path) = &args.output {
        match std::fs::File::create(path)
            .map_err(|e| e.to_string())
            .and_then(|f| serde_json::to_writer_pretty(f, &result).map_err(|e| e.to_string()))
        {
            Ok(()) => println!("\nresult written to {path}"),
            Err(e) => {
                eprintln!("error writing {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if !finish_trace(&args, &trace) {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_shape_lists() {
        assert_eq!(parse_u64_list("1,512, 512 ,512", 4, "--matmul").unwrap(), [1, 512, 512, 512]);
        assert!(parse_u64_list("1,2,3", 4, "--matmul").is_err());
        assert!(parse_u64_list("1,x,3,4", 4, "--matmul").is_err());
        assert!(parse_u64_list("", 1, "--matmul").is_err());
    }

    #[test]
    fn usage_mentions_every_flag() {
        for flag in
            ["--platform", "--backend", "--network", "--matmul", "--conv2d", "--trials", "--seed",
             "--threads",
             "--model", "--no-psa", "--fault-rate", "--max-retries", "--checkpoint",
             "--checkpoint-every", "--halt-after", "--resume", "--deadline", "--watchdog-secs",
             "--max-restarts", "--show-schedules", "--output",
             "--trace-out", "--report", "--store", "--warm-start"]
        {
            assert!(USAGE.contains(flag), "USAGE missing {flag}");
        }
    }

    #[test]
    fn fleet_usage_mentions_every_flag() {
        for flag in
            ["--state-dir", "--roster", "--roster-file", "--matmul", "--conv2d", "--trials",
             "--seed", "--threads", "--momentum", "--pretrain", "--probes", "--store",
             "--halt-after-stage", "--watchdog-secs", "--max-restarts", "--output",
             "--trace-out", "--report"]
        {
            assert!(FLEET_USAGE.contains(flag), "FLEET_USAGE missing {flag}");
        }
        assert!(USAGE.contains("fleet"), "top-level USAGE must mention the fleet subcommand");
    }
}
