//! `pruner-tune` — the command-line front end of the reproduction
//! (`pruner-tune --help`; the README has worked examples).
//!
//! Every flag of the four subcommands (`tune`, `records`, `serve`,
//! `fleet`) is declared once, in [`FLAGS`]. That table drives the one
//! parse loop ([`parse`]) and renders each subcommand's OPTIONS help, and
//! each kind of value is parsed and range-checked by exactly one getter on
//! [`Flags`]. A whole command line is checked ([`plan`]) before anything
//! runs, so no value given on the command line reaches a library panic.

use pruner::cost::ModelKind;
use pruner::durable::write_atomic_durable;
use pruner::exec::CpuExec;
use pruner::gpu::{Backend, GpuSpec, Simulator};
use pruner::ir::{zoo, Network, Workload};
use pruner::serve::{Client, Daemon, Request, Response, ServeConfig};
use pruner::sketch::{render, Program};
use pruner::store::Store;
use pruner::trace::TraceHandle;
use pruner::tuner::{
    CampaignOutcome, Checkpoint, Supervisor, SupervisorConfig, Tuner, TunerConfig, TuningResult,
};
use pruner::{Fleet, FleetConfig, FleetStatus, Pruner};
use std::fmt::Display;
use std::ops::{Bound, RangeBounds};
use std::path::Path;
use std::process::ExitCode;
use std::str::FromStr;

/// The subcommands, as bits of [`Flag::cmds`].
const TUNE: u8 = 1;
const RECORDS: u8 = 2;
const SERVE: u8 = 4;
const FLEET: u8 = 8;
/// The subcommands that run campaigns.
const CAMPAIGN: u8 = TUNE | SERVE | FLEET;

/// One command-line flag.
struct Flag {
    name: &'static str,
    /// What the value looks like in the help; `None` for a switch.
    metavar: Option<&'static str>,
    help: &'static str,
    /// The subcommands that accept it (`TUNE | SERVE | …`).
    cmds: u8,
}

const fn flag(name: &'static str, metavar: &'static str, help: &'static str, cmds: u8) -> Flag {
    Flag { name, metavar: Some(metavar), help, cmds }
}

const fn switch(name: &'static str, help: &'static str, cmds: u8) -> Flag {
    Flag { name, metavar: None, help, cmds }
}

/// Every flag of every subcommand, in help order. Repeatable flags
/// (`--matmul`, `--conv2d`, `--roster`) accumulate; every other flag
/// keeps the last value given.
const FLAGS: &[Flag] = &[
    flag("--platform", "<p>", "k80 | t4 | titanv | a100 | orin", TUNE | RECORDS | SERVE),
    flag("--backend", "<b>", "sim | cpu [default: sim]", TUNE),
    flag(
        "--network",
        "<name>",
        "R-50 WR-50 I-V3 D-121 MB-V2 ViT DL-V3 DeTR B-base B-tiny R3D-18",
        TUNE | SERVE,
    ),
    flag("--matmul", "B,M,N,K", "add a matmul task (repeatable)", CAMPAIGN),
    flag("--conv2d", "N,C,H,W,CO,K,S,P", "add a conv2d task (repeatable)", CAMPAIGN),
    flag("--roster", "<p1,p2,...>", "device presets in tuning order (repeatable)", FLEET),
    flag("--roster-file", "<file>", "JSON array of GpuSpec objects to append", FLEET),
    flag("--trials", "N", "measurement budget [default: tune 800, else 2000]", CAMPAIGN),
    flag("--seed", "N", "RNG seed [default: 42]", CAMPAIGN),
    flag("--threads", "N", "pipeline threads (results identical) [default: all cores]", CAMPAIGN),
    flag("--model", "<m>", "pacm|ansor|xgb|tensetmlp|tlp|random [default: pacm]", TUNE | SERVE),
    switch("--no-psa", "disable PSA search-space pruning", TUNE | SERVE),
    flag("--fault-rate", "R", "inject hardware faults at rate R in [0, 0.9] [default: 0]", TUNE),
    flag("--max-retries", "N", "measurement retries before quarantine [default: 2]", TUNE),
    flag("--checkpoint", "<file>", "crash-safe campaign checkpoint, rewritten atomically", TUNE),
    flag("--checkpoint-every", "N", "rounds between checkpoint writes [default: 5]", TUNE | SERVE),
    flag("--halt-after", "N", "stop after N rounds (simulates a crash)", TUNE),
    flag("--resume", "<file>", "continue a checkpointed campaign byte-identically", TUNE),
    flag("--deadline", "S", "supervise; park (exit 3) after S host seconds", TUNE),
    flag("--watchdog-secs", "S", "restart when stalled S seconds [default: 30]", TUNE | FLEET),
    flag("--max-restarts", "N", "quarantine after N restarts [default: 3]", TUNE | FLEET),
    flag("--momentum", "F", "MTL momentum in [0, 1] [default: 0.99]", FLEET),
    flag("--pretrain", "N", "pre-training samples per workload [default: 64]", FLEET),
    flag("--probes", "N", "probe programs per workload per device [default: 32]", FLEET),
    flag("--halt-after-stage", "N", "park the fleet (exit 3) after N stages", FLEET),
    flag("--show-schedules", "N", "print the N best schedules as pseudo-TIR [default: 1]", TUNE),
    flag("--store", "<file>", "tuning-record store (docs/STORE_FORMAT.md)", TUNE | RECORDS | FLEET),
    flag("--warm-start", "on|off", "replay --store records before round 0 [default: on]", TUNE),
    flag("--output", "<file>", "write the result as JSON", TUNE | RECORDS | SERVE | FLEET),
    flag("--trace-out", "<file>", "write the trace as versioned JSONL", TUNE | FLEET),
    switch("--report", "print the end-of-run summary to stderr", TUNE | FLEET),
    flag("--socket", "<path>", "Unix socket the daemon answers on", SERVE),
    flag("--state-dir", "<dir>", "durable state root; rerunning on it resumes", SERVE | FLEET),
    flag("--workers", "N", "concurrent campaign workers [default: 2]", SERVE),
    flag("--budget", "N", "max concurrent campaigns per tenant [default: 1]", SERVE),
    flag("--model-dir", "<dir>", "pre-trained ModelSnapshot JSON files", SERVE),
    flag("--predict-threads", "N", "shared-model predict_batch threads [default: 1]", SERVE),
    flag("--tenant", "<name>", "tenant the campaign belongs to ([a-zA-Z0-9_-])", SERVE),
    flag("--campaign", "<id>", "campaign id returned by submit", SERVE),
];

const TUNE_HELP: &str = "\
pruner-tune: tune tensor programs on a simulated GPU

USAGE:
    pruner-tune --platform <p> (--network <name> | --matmul B,M,N,K | --conv2d N,C,H,W,CO,K,S,P)...
                [OPTIONS]
    pruner-tune --resume file.json [--checkpoint file.json] [--output file.json]
                [--trace-out file.jsonl] [--report] [--store records.jsonl]
    pruner-tune (records | serve | fleet) ...   record store, tuning daemon,
                cross-hardware fleet (`pruner-tune <subcommand> --help`)

OPTIONS:

`--backend cpu` runs every candidate on the host CPU and reports wall time
(docs/FIDELITY.md; PRUNER_CPU_THREADS sets its threads). A resumed campaign
takes its flags from the checkpoint. --deadline, --watchdog-secs or
--max-restarts runs the campaign under the crash-safe supervisor.

EXIT CODES:
    0    campaign completed
    1    usage or I/O error
    3    supervised campaign hit --deadline and was parked
    4    supervised campaign was quarantined (too many faults)
";

const RECORDS_HELP: &str = "\
pruner-tune records: inspect a tuning-record store without tuning

USAGE:
    pruner-tune records (stats | compact | export) --store records.jsonl
                [--platform <p>] [--output dataset.json]

OPTIONS:

MODES:
    stats      record counts per platform/workload/verdict, corruption counters
    compact    rewrite the store atomically without duplicate or damaged lines
    export     successful records as a pruner-dataset JSON file (--output);
               --platform picks one platform when the store holds several

EXIT CODES:
    0    done
    1    usage or I/O error
";

const SERVE_HELP: &str = "\
pruner-tune serve: resident multi-tenant tuning daemon (see docs/SERVING.md)

USAGE:
    pruner-tune serve start --socket <path> --state-dir <dir> [OPTIONS]
    pruner-tune serve submit --socket <path> --tenant <name> --platform <p>
                (--network <name> | --matmul B,M,N,K | --conv2d N,C,H,W,CO,K,S,P)...
                [OPTIONS]
    pruner-tune serve (status | cancel) --socket <path> --campaign <id> [--output file.json]
    pruner-tune serve predict --socket <path> --model <name> --matmul B,M,N,K...
    pruner-tune serve shutdown --socket <path>

OPTIONS:

--model names a daemon model (<model-dir>/<name>.json, then a built-in kind)
shared frozen across tenants; a campaign without one trains its own PaCM,
byte-identical to the one-shot CLI.

EXIT CODES:
    0    request served (status: campaign exists, any state)
    1    usage error, connection failure, or daemon-side error reply
";

const FLEET_HELP: &str = "\
pruner-tune fleet: tune one workload suite across an ordered roster of
devices with a shared continually-learning cost model (see docs/FLEET.md)

USAGE:
    pruner-tune fleet --state-dir <dir> (--roster <p1,p2,...> | --roster-file specs.json)
                (--matmul B,M,N,K | --conv2d N,C,H,W,CO,K,S,P)... [OPTIONS]

OPTIONS:

--trials is per stage. A roster device may repeat (its scoring head is
restored), and a stage warm-starts from --store records of its own device
only. --output holds the per-stage results and the transfer/forgetting report.

EXIT CODES:
    0    roster completed
    1    usage or I/O error
    3    fleet parked mid-roster (--halt-after-stage or stage deadline)
";

/// The help of subcommand `cmd`: its hand-written synopsis and prose, with
/// the OPTIONS block rendered from [`FLAGS`].
fn help(cmd: u8) -> String {
    let text = match cmd {
        RECORDS => RECORDS_HELP,
        SERVE => SERVE_HELP,
        FLEET => FLEET_HELP,
        _ => TUNE_HELP,
    };
    let mut options = String::from("OPTIONS:\n");
    for f in FLAGS.iter().filter(|f| f.cmds & cmd != 0) {
        let usage = format!("{} {}", f.name, f.metavar.unwrap_or_default());
        options += &format!("    {:<26} {}\n", usage.trim_end(), f.help);
    }
    text.replacen("OPTIONS:\n", &options, 1)
}

/// The flags one command line gave, in order, each accepted by the table.
struct Flags {
    given: Vec<(&'static str, String)>,
}

/// Matches `argv` against [`FLAGS`] for subcommand `cmd`. A flag is
/// looked up before its value is read, so an unknown flag is reported as
/// such wherever it stands and never swallows the next argument. `None`
/// means `--help`/`-h` was given.
fn parse(cmd: u8, argv: &[String]) -> Result<Option<Flags>, String> {
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(None);
    }
    let mut given = Vec::new();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let known = FLAGS.iter().find(|f| f.name == arg && f.cmds & cmd != 0);
        let f = known.ok_or_else(|| format!("unknown flag `{arg}`"))?;
        let value = match f.metavar {
            None => String::new(),
            Some(_) => it.next().ok_or_else(|| format!("{} expects a value", f.name))?.clone(),
        };
        given.push((f.name, value));
    }
    Ok(Some(Flags { given }))
}

/// The typed getters: each kind of value is parsed and checked here, once,
/// for every subcommand that accepts it.
impl Flags {
    /// Every value given for `name`, in order.
    fn all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.given.iter().filter(move |(n, _)| *n == name).map(|(_, v)| v.as_str())
    }

    fn has(&self, name: &str) -> bool {
        self.all(name).next().is_some()
    }

    fn string(&self, name: &str) -> Option<String> {
        self.all(name).last().map(str::to_string)
    }

    /// The last value of `name` through `parse`; every earlier value must
    /// parse too.
    fn get<T>(&self, name: &str, parse: impl Fn(&str) -> Result<T, String>) -> Parsed<T> {
        self.all(name).try_fold(None, |_, value| parse(value).map(Some))
    }

    /// A number that must lie in `range`; `what` states the range in the
    /// error.
    fn ranged<T: Num>(&self, name: &str, range: impl RangeBounds<T>, what: &str) -> Parsed<T> {
        self.get(name, |v| {
            let x: T = v.parse().map_err(|e| format!("{name}: {e}"))?;
            range.contains(&x).then_some(x).ok_or_else(|| format!("{name} must be {what}"))
        })
    }

    /// Any number of type `T`.
    fn num<T: Num>(&self, name: &str) -> Parsed<T> {
        self.ranged(name, .., "")
    }

    /// Host seconds (`--deadline`, `--watchdog-secs`): positive and finite.
    fn secs(&self, name: &str) -> Parsed<f64> {
        let positive = (Bound::Excluded(0.0), Bound::Excluded(f64::INFINITY));
        self.ranged(name, positive, "positive and finite")
    }

    fn platform(&self) -> Parsed<GpuSpec> {
        self.get("--platform", spec)
    }

    fn network(&self) -> Parsed<Network> {
        self.get("--network", |v| {
            zoo::by_short_name(v, 1).ok_or_else(|| format!("unknown network `{v}`"))
        })
    }

    /// The `--matmul`/`--conv2d` tasks, in command-line order.
    fn workloads(&self) -> Result<Vec<Workload>, String> {
        let tasks = self.given.iter().filter(|(n, _)| matches!(*n, "--matmul" | "--conv2d"));
        tasks.map(|(n, v)| workload(n, v)).collect()
    }

    /// The `--roster` presets, then the devices of `--roster-file`.
    fn roster(&self) -> Result<Vec<GpuSpec>, String> {
        let mut roster = Vec::new();
        for name in self.all("--roster").flat_map(|v| v.split(',')) {
            roster.push(spec(name.trim()).map_err(|e| format!("--roster: {e}"))?);
        }
        if let Some(path) = self.string("--roster-file") {
            let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
            let extra: Vec<GpuSpec> =
                serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
            roster.extend(extra);
        }
        Ok(roster)
    }

    /// The campaign configuration every tuning subcommand shares. Trials
    /// become rounds here, once; `default_trials` applies when `--trials`
    /// is absent (otherwise the config's own rounds stand).
    fn config(&self, default_trials: Option<usize>) -> Result<TunerConfig, String> {
        let d = TunerConfig::default();
        let mut cfg = TunerConfig {
            seed: self.num("--seed")?.unwrap_or(d.seed),
            threads: self.ranged("--threads", 1.., "at least 1")?.unwrap_or(d.threads),
            use_psa: !self.has("--no-psa"),
            fault_rate: self.ranged("--fault-rate", 0.0..=0.9, "in [0, 0.9]")?.unwrap_or(0.0),
            max_retries: self.num("--max-retries")?.unwrap_or(d.max_retries),
            checkpoint_every: self.num("--checkpoint-every")?.unwrap_or(d.checkpoint_every),
            halt_after: self.num("--halt-after")?,
            ..d
        };
        let m = cfg.measure_per_round;
        let trials = self.ranged("--trials", m.., &format!("at least {m} (one round)"))?;
        if let Some(trials) = trials.or(default_trials) {
            cfg.rounds = trials / m;
        }
        Ok(cfg)
    }

    /// The supervision policy: `--deadline`, `--watchdog-secs` and
    /// `--max-restarts` over the supervisor's defaults.
    fn supervisor(&self) -> Result<SupervisorConfig, String> {
        let d = SupervisorConfig::default();
        Ok(SupervisorConfig {
            wall_deadline_s: self.secs("--deadline")?,
            watchdog_timeout_s: self.secs("--watchdog-secs")?.unwrap_or(d.watchdog_timeout_s),
            max_restarts: self.num("--max-restarts")?.unwrap_or(d.max_restarts),
            ..d
        })
    }
}

/// What a getter returns: the flag's checked value, if it was given.
type Parsed<T> = Result<Option<T>, String>;

/// A number a flag can hold.
trait Num: FromStr<Err: Display> + PartialOrd {}
impl<T: FromStr<Err: Display> + PartialOrd> Num for T {}

/// A platform preset by name — the one place a name becomes a [`GpuSpec`].
fn spec(name: &str) -> Result<GpuSpec, String> {
    GpuSpec::by_name(name).ok_or_else(|| format!("unknown platform `{name}`"))
}

fn parse_u64_list(s: &str, n: usize, flag: &str) -> Result<Vec<u64>, String> {
    let parts: Result<Vec<u64>, _> = s.split(',').map(|p| p.trim().parse()).collect();
    match parts {
        Ok(v) if v.len() == n => Ok(v),
        _ => Err(format!("{flag} expects {n} comma-separated integers, got `{s}`")),
    }
}

/// One `--matmul` or `--conv2d` task. Shapes the IR would panic on — a
/// zero extent, stride or kernel, a kernel wider than the padded input —
/// are usage errors here.
fn workload(flag: &str, value: &str) -> Result<Workload, String> {
    if flag == "--matmul" {
        let v = parse_u64_list(value, 4, flag)?;
        if v.contains(&0) {
            return Err(format!("--matmul extents must be at least 1, got `{value}`"));
        }
        return Ok(Workload::matmul(v[0], v[1], v[2], v[3]));
    }
    let v = parse_u64_list(value, 8, flag)?;
    let padded = v[2].min(v[3]).saturating_add(v[7].saturating_mul(2));
    if v[..7].contains(&0) || v[5] > padded {
        return Err(format!(
            "--conv2d N,C,H,W,CO,K,S must be at least 1 and K fit the padded input, got `{value}`"
        ));
    }
    Ok(Workload::conv2d(v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7]))
}

/// Which measurement backend a campaign runs on.
#[derive(Clone, Copy, PartialEq)]
enum BackendChoice {
    /// The analytical GPU simulator (default).
    Sim,
    /// The executable CPU backend: latency is host wall-clock time.
    Cpu,
}

/// `--output`, `--trace-out` and `--report`: where `tune` and `fleet`
/// send what a run produced.
struct Outputs {
    output: Option<String>,
    trace_out: Option<String>,
    report: bool,
}

impl Outputs {
    fn new(f: &Flags) -> Outputs {
        let (output, trace_out) = (f.string("--output"), f.string("--trace-out"));
        Outputs { output, trace_out, report: f.has("--report") }
    }

    /// One shared trace buffer for `--trace-out` and `--report`: the run
    /// records into a clone, this one stays behind to render.
    fn trace(&self) -> Option<TraceHandle> {
        (self.trace_out.is_some() || self.report).then(TraceHandle::new)
    }

    /// Writes `--output` as pretty JSON, atomically and durably.
    fn write(&self, result: &impl serde::Serialize) -> Result<(), String> {
        let Some(path) = &self.output else { return Ok(()) };
        let error = |e: &dyn Display| format!("error writing {path}: {e}");
        let json = serde_json::to_string_pretty(result).map_err(|e| error(&e))?;
        write_atomic_durable(Path::new(path), &json, None).map_err(|e| error(&e))?;
        println!("result written to {path}");
        Ok(())
    }

    /// Writes `--trace-out` and prints `--report`.
    fn finish(&self, trace: Option<&TraceHandle>) -> Result<(), String> {
        let Some(trace) = trace else { return Ok(()) };
        if let Some(path) = &self.trace_out {
            let written = trace.write_atomic(Path::new(path));
            written.map_err(|e| format!("error writing trace {path}: {e}"))?;
            println!("trace written to {path} ({} events)", trace.len());
        }
        if self.report {
            eprint!("{}", trace.report().render());
        }
        Ok(())
    }
}

/// A checked `tune` command line.
struct Tune {
    /// `--platform` (unused when resuming).
    spec: GpuSpec,
    backend: BackendChoice,
    network: Option<Network>,
    workloads: Vec<Workload>,
    config: TunerConfig,
    model: ModelKind,
    checkpoint: Option<String>,
    resume: Option<String>,
    /// `Some` when a supervision flag was given.
    supervisor: Option<SupervisorConfig>,
    show_schedules: usize,
    store: Option<String>,
    warm_start: bool,
    out: Outputs,
}

/// Splits off the subcommand: `records`, `serve` or `fleet`, else `tune`.
fn subcommand(argv: &[String]) -> (u8, &[String]) {
    match argv.first().map(String::as_str) {
        Some("records") => (RECORDS, &argv[1..]),
        Some("serve") => (SERVE, &argv[1..]),
        Some("fleet") => (FLEET, &argv[1..]),
        _ => (TUNE, argv),
    }
}

/// A checked command line, ready to run.
type Run = Box<dyn FnOnce() -> Exit>;

/// Parses and checks a whole command line without running anything.
/// `None` asks for the subcommand's help.
fn plan(argv: &[String]) -> Result<Option<Run>, String> {
    let (cmd, argv) = subcommand(argv);
    // `records` and `serve` name a mode before their flags.
    let (mode, argv) = match (cmd, argv.split_first()) {
        (RECORDS | SERVE, Some((mode, rest))) => (mode.clone(), rest),
        _ => (String::new(), argv),
    };
    if matches!(mode.as_str(), "--help" | "-h" | "help") || (cmd == SERVE && mode.is_empty()) {
        return Ok(None);
    }
    let Some(f) = parse(cmd, argv)? else { return Ok(None) };
    let run = match cmd {
        TUNE => plan_tune(&f)?,
        RECORDS => plan_records(mode, &f)?,
        SERVE => plan_serve(&mode, &f)?,
        _ => plan_fleet(&f)?,
    };
    Ok(Some(run))
}

fn plan_records(mode: String, f: &Flags) -> Result<Run, String> {
    if !matches!(mode.as_str(), "stats" | "compact" | "export") {
        return Err(format!("records expects stats|compact|export, got `{mode}`"));
    }
    let output = f.string("--output");
    if mode == "export" && output.is_none() {
        return Err("export needs --output <dataset.json>".into());
    }
    let store = f.string("--store").ok_or("records needs --store <file>")?;
    let platform = f.platform()?;
    Ok(Box::new(move || records(&mode, &store, platform, output)))
}

fn plan_tune(f: &Flags) -> Result<Run, String> {
    let resume = f.string("--resume");
    let platform = f.platform()?;
    let network = f.network()?;
    let workloads = f.workloads()?;
    if resume.is_none() {
        if platform.is_none() {
            return Err("--platform is required".into());
        }
        if network.is_none() && workloads.is_empty() {
            return Err("give --network or at least one --matmul/--conv2d".into());
        }
    }
    let backend = f.get("--backend", |v| match v {
        "sim" => Ok(BackendChoice::Sim),
        "cpu" => Ok(BackendChoice::Cpu),
        _ => Err(format!("--backend expects sim|cpu, got `{v}`")),
    })?;
    let backend = backend.unwrap_or(BackendChoice::Sim);
    let config = f.config(Some(800))?;
    if backend == BackendChoice::Cpu && config.fault_rate > 0.0 {
        return Err("--fault-rate applies only to --backend sim (cpu faults are real)".into());
    }
    let supervised = ["--deadline", "--watchdog-secs", "--max-restarts"].iter().any(|n| f.has(n));
    if supervised && resume.is_some() {
        return Err("supervision flags do not combine with --resume; use --checkpoint".into());
    }
    let checkpoint = f.string("--checkpoint");
    let supervisor = SupervisorConfig {
        seed: config.seed,
        checkpoint: checkpoint.as_ref().map(Into::into),
        ..f.supervisor()?
    };
    let model = f.get("--model", |v| match v {
        "pacm" => Ok(ModelKind::Pacm),
        "ansor" => Ok(ModelKind::Ansor),
        "xgb" => Ok(ModelKind::AnsorXgb),
        "tensetmlp" => Ok(ModelKind::TensetMlp),
        "tlp" => Ok(ModelKind::Tlp),
        "random" => Ok(ModelKind::Random),
        _ => Err(format!("unknown model `{v}`")),
    })?;
    let warm_start = f.get("--warm-start", |v| match v {
        "on" => Ok(true),
        "off" => Ok(false),
        _ => Err(format!("--warm-start expects on|off, got `{v}`")),
    })?;
    let t = Tune {
        spec: platform.unwrap_or_else(GpuSpec::t4),
        backend,
        network,
        workloads,
        config,
        model: model.unwrap_or(ModelKind::Pacm),
        checkpoint,
        resume,
        supervisor: supervised.then_some(supervisor),
        show_schedules: f.num("--show-schedules")?.unwrap_or(1),
        store: f.string("--store"),
        warm_start: warm_start.unwrap_or(true),
        out: Outputs::new(f),
    };
    Ok(Box::new(move || tune(t)))
}

/// Checks one `serve` verb's flags and builds its request, before any
/// connection is made.
fn plan_serve(verb: &str, f: &Flags) -> Result<Run, String> {
    let socket = f.string("--socket").ok_or("serve needs --socket <path>")?;
    let campaign =
        || f.string("--campaign").ok_or_else(|| format!("serve {verb} needs --campaign <id>"));
    let request = match verb {
        "start" => {
            let state_dir = f.string("--state-dir").ok_or("serve start needs --state-dir <dir>")?;
            let d = ServeConfig::new(socket, state_dir);
            let cfg = ServeConfig {
                workers: f.num("--workers")?.unwrap_or(d.workers),
                per_tenant_budget: f.num("--budget")?.unwrap_or(d.per_tenant_budget),
                model_dir: f.string("--model-dir").map(Into::into),
                predict_threads: f.num("--predict-threads")?.unwrap_or(d.predict_threads),
                ..d
            };
            return Ok(Box::new(move || serve_start(cfg)));
        }
        "submit" => {
            let tenant = f.string("--tenant").ok_or("serve submit needs --tenant <name>")?;
            let spec = f.platform()?.ok_or("serve submit needs --platform <p>")?;
            let config = f.config(None)?;
            let mut workloads: Vec<(Workload, u64)> =
                f.workloads()?.into_iter().map(|wl| (wl, 1)).collect();
            if let Some(net) = f.network()? {
                workloads.extend(net.subgraphs().iter().map(|sg| (sg.workload.clone(), sg.weight)));
            }
            if workloads.is_empty() {
                return Err("serve submit needs --network or --matmul/--conv2d".into());
            }
            Request::SubmitCampaign { tenant, spec, workloads, config, model: f.string("--model") }
        }
        "status" => Request::Status { campaign: campaign()? },
        "cancel" => Request::Cancel { campaign: campaign()? },
        "predict" => {
            let workloads = f.workloads()?;
            if workloads.is_empty() {
                return Err("serve predict needs at least one --matmul/--conv2d".into());
            }
            Request::PredictOnly {
                model: f.string("--model").ok_or("serve predict needs --model <name>")?,
                programs: workloads.iter().map(Program::fallback).collect(),
            }
        }
        "shutdown" => Request::Shutdown,
        other => return Err(format!("unknown serve verb `{other}`")),
    };
    let output = f.string("--output");
    Ok(Box::new(move || serve_call(&socket, &request, output)))
}

fn plan_fleet(f: &Flags) -> Result<Run, String> {
    let state_dir = f.string("--state-dir").ok_or("fleet needs --state-dir <dir>")?;
    let roster = f.roster()?;
    if roster.is_empty() {
        return Err("fleet needs --roster and/or --roster-file".into());
    }
    let workloads = f.workloads()?;
    if workloads.is_empty() {
        return Err("fleet needs at least one --matmul/--conv2d".into());
    }
    let tuner = f.config(None)?;
    let cfg = FleetConfig {
        roster,
        workloads: workloads.into_iter().map(|wl| (wl, 1)).collect(),
        tuner,
        momentum: f.ranged("--momentum", 0.0..=1.0, "in [0, 1]")?.unwrap_or(0.99),
        pretrain_per_workload: f.num("--pretrain")?.unwrap_or(64),
        probes_per_workload: f.ranged("--probes", 1.., "at least 1")?.unwrap_or(32),
        pretrain_epochs: 3,
        seed: tuner.seed,
        state_dir: state_dir.into(),
        store: f.string("--store").map(Into::into),
        halt_after_stages: f.num("--halt-after-stage")?,
        supervisor: f.supervisor()?,
    };
    let out = Outputs::new(f);
    Ok(Box::new(move || fleet(cfg, out)))
}

fn open_store(path: &str) -> Result<Store, String> {
    Store::open(path).map_err(|e| format!("error opening store {path}: {e}"))
}

/// Re-attaches what a checkpoint does not carry — the checkpoint path,
/// the trace recorder and the record store — to any campaign: fresh,
/// resumed or restarted. A resumed campaign records without replaying.
fn attach<B: Backend>(
    tuner: &mut Tuner<B>,
    t: &Tune,
    trace: Option<&TraceHandle>,
) -> Result<(), String> {
    if let Some(path) = &t.checkpoint {
        tuner.set_checkpoint_path(path);
    }
    if let Some(trace) = trace {
        tuner.set_recorder(Box::new(trace.clone()));
    }
    if let Some(path) = &t.store {
        tuner.set_store(open_store(path)?, t.warm_start);
    }
    Ok(())
}

/// Runs one campaign on backend `B` — fresh, `--resume`d or supervised.
/// `Ok(Err(code))` is a supervised park (3) or quarantine (4), already
/// reported.
fn campaign<B: Backend>(
    t: &Tune,
    trace: Option<&TraceHandle>,
    backend: fn(GpuSpec) -> B,
) -> Result<Result<TuningResult, ExitCode>, String> {
    // One attempt: from the checkpoint the supervisor loaded, from one on
    // disk (`--resume`, or the `--checkpoint` of a parked supervised run),
    // or fresh.
    let start = |ckpt: Option<Checkpoint>| -> Result<Tuner<B>, String> {
        let on_disk = match t.supervisor {
            None => t.resume.as_deref(),
            Some(_) => t.checkpoint.as_deref().filter(|p| Path::new(p).exists()),
        };
        let mut tuner = match (ckpt, on_disk) {
            (Some(ckpt), _) => Tuner::from_checkpoint_backend(ckpt).map_err(|e| e.to_string())?,
            (None, Some(path)) => {
                Tuner::resume(path).map_err(|e| format!("error resuming from {path}: {e}"))?
            }
            (None, None) => {
                let mut builder = Pruner::builder(t.spec.clone()).config(t.config).model(t.model);
                if let Some(net) = &t.network {
                    builder = builder.network(net);
                }
                for wl in &t.workloads {
                    builder = builder.workload(wl.clone());
                }
                builder.build_with(backend(t.spec.clone())).into_tuner()
            }
        };
        attach(&mut tuner, t, trace)?;
        Ok(tuner)
    };
    let Some(cfg) = &t.supervisor else { return Ok(Ok(start(None)?.run())) };

    // A store that cannot be opened is an error to report, not a fault
    // for the supervisor to retry.
    if let Some(path) = &t.store {
        open_store(path)?;
    }
    let mut supervisor = Supervisor::new(cfg.clone());
    if let Some(trace) = trace {
        supervisor.set_recorder(Box::new(trace.clone()));
    }
    let run = supervisor.run(|ckpt| start(ckpt).map_err(std::io::Error::other));
    for fault in &run.faults {
        eprintln!("supervisor: fault: {fault}");
    }
    if run.restarts > 0 {
        eprintln!("supervisor: recovered through {} restart(s)", run.restarts);
    }
    let resume = t.checkpoint.as_deref().map(|p| format!(" (resume from {p})")).unwrap_or_default();
    Ok(match run.outcome {
        CampaignOutcome::Completed => Ok(run.result.expect("completed campaigns carry a result")),
        CampaignOutcome::WallDeadlineExceeded | CampaignOutcome::SimDeadlineExceeded => {
            match &run.result {
                Some(result) => println!(
                    "deadline exceeded: campaign parked at best {:.4} ms after {} trials{resume}",
                    result.best_latency_s * 1e3,
                    result.stats.trials,
                ),
                None => eprintln!("deadline exceeded: campaign could not be parked"),
            }
            Err(ExitCode::from(3))
        }
        CampaignOutcome::Quarantined => {
            eprintln!("supervisor: campaign quarantined after {} fault(s)", run.faults.len());
            Err(ExitCode::from(4))
        }
        // The one-shot CLI installs no external stop signal, so a
        // cancellation can only come from a wrapping service; treat it
        // like a park (the checkpoint, if any, is resumable).
        CampaignOutcome::Cancelled => {
            eprintln!("supervisor: campaign cancelled");
            Err(ExitCode::from(3))
        }
    })
}

/// `pruner-tune [flags]` — one tuning campaign.
fn tune(t: Tune) -> Result<ExitCode, String> {
    let trace = t.out.trace();
    if let Some(path) = &t.resume {
        println!("resuming : {path}");
    } else {
        println!("platform : {}", t.spec);
        if t.backend == BackendChoice::Cpu {
            println!("backend  : cpu (executable; latencies are host wall time)");
        }
        if let Some(path) = &t.store {
            println!("store    : {path} (warm start {})", if t.warm_start { "on" } else { "off" });
        }
        if let Some(net) = &t.network {
            println!("network  : {net}");
        }
        for wl in &t.workloads {
            println!("workload : {wl}");
        }
    }
    // The one backend dispatch. A checkpoint embeds its backend tag, so
    // resuming with the wrong --backend fails cleanly instead of silently
    // switching meters.
    let run = match t.backend {
        BackendChoice::Sim => campaign(&t, trace.as_ref(), Simulator::new)?,
        BackendChoice::Cpu => campaign(&t, trace.as_ref(), CpuExec::new)?,
    };
    let result = match run {
        Ok(result) => result,
        Err(code) => {
            // Deadline parks and quarantines still flush the trace — the
            // supervisor.* records are the evidence.
            if let Err(e) = t.out.finish(trace.as_ref()) {
                eprintln!("{e}");
            }
            return Ok(code);
        }
    };
    let stats = &result.stats;
    println!(
        "\nbest latency : {:.4} ms   ({} trials, {:.0} simulated search seconds)",
        result.best_latency_s * 1e3,
        stats.trials,
        stats.total_s()
    );
    if stats.failures > 0 {
        println!(
            "faults       : {} failed attempts ({} compile, {} timeout, {} reset, {} outlier), {} retried, {} quarantined, {:.0}s lost",
            stats.failures,
            stats.compile_errors,
            stats.timeouts,
            stats.device_resets,
            stats.outliers,
            stats.retries,
            stats.quarantined,
            stats.fault_time_s + stats.retry_backoff_s
        );
    }
    if let Some(path) = &t.store {
        match Store::open(path) {
            Ok(store) => println!("store        : {} records in {path}", store.len()),
            Err(e) => eprintln!("warning: cannot re-read store {path}: {e}"),
        }
    }
    // Best schedules, slowest tasks first (they dominate the end-to-end).
    let mut order: Vec<usize> = (0..result.per_task_best.len()).collect();
    order.sort_by(|&a, &b| result.per_task_best[b].1.total_cmp(&result.per_task_best[a].1));
    for &i in order.iter().take(t.show_schedules) {
        let (wl, lat) = &result.per_task_best[i];
        println!("\n--- {} @ {:.4} ms ---", wl, lat * 1e3);
        if let Some(prog) = &result.best_programs[i] {
            print!("{}", render::render(prog));
        }
    }
    t.out.write(&result)?;
    t.out.finish(trace.as_ref())?;
    Ok(ExitCode::SUCCESS)
}

/// `pruner-tune records <mode>` — inspect, compact or export a
/// tuning-record store without running a campaign.
fn records(mode: &str, path: &str, platform: Option<GpuSpec>, out: Option<String>) -> Exit {
    let store = open_store(path)?;
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
            let mut counts: Vec<((&str, &str), usize, usize)> = Vec::new();
            let mut index = std::collections::HashMap::new();
            for r in store.records() {
                let key = (r.spec.as_str(), r.workload_fp.as_str());
                let i = *index.entry(key).or_insert_with(|| {
                    counts.push((key, 0, 0));
                    counts.len() - 1
                });
                let ok = r.outcome.is_success();
                counts[i].1 += usize::from(ok);
                counts[i].2 += usize::from(!ok);
            }
            for ((spec, workload), ok, failed) in counts {
                println!("  {spec:<14} {workload:<40} {ok:>6} ok {failed:>6} failed");
            }
        }
        "compact" => {
            store.flush().map_err(|e| format!("error rewriting {path}: {e}"))?;
            let (kept, dropped) = (store.len(), stats.skipped());
            println!("compacted {path}: kept {kept} records, dropped {dropped} lines");
        }
        _ => {
            let out = out.expect("export is planned with --output");
            let wanted_fp = platform.as_ref().map(|spec| spec.fingerprint());
            let successes: Vec<_> = store
                .records()
                .iter()
                .filter(|r| wanted_fp.as_deref().is_none_or(|fp| r.spec_fp == fp))
                .filter_map(|r| r.outcome.latency_s().map(|l| (r, l)))
                .collect();
            if successes.is_empty() {
                return Err(format!("error exporting {path}: no successful records"));
            }
            let mut platforms: Vec<&str> = successes.iter().map(|(r, _)| r.spec.as_str()).collect();
            platforms.sort_unstable();
            platforms.dedup();
            let name = match (platform, platforms.as_slice()) {
                (Some(spec), _) => spec.name,
                (None, [single]) => single.to_string(),
                (None, many) => {
                    let many = many.join(", ");
                    return Err(format!(
                        "error exporting {path}: it mixes {many}; pick a --platform"
                    ));
                }
            };
            let programs = successes.into_iter().map(|(r, l)| (r.program.clone(), l));
            let ds = pruner::dataset::Dataset::from_measurements(name, programs);
            ds.save_json(&out).map_err(|e| format!("error writing {out}: {e}"))?;
            let (n, workloads) = (ds.num_programs(), ds.entries.len());
            println!("exported {n} programs across {workloads} workloads to {out}");
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// `pruner-tune fleet` — run a cross-hardware continual-learning fleet.
fn fleet(cfg: FleetConfig, out: Outputs) -> Exit {
    println!("fleet    : {} device(s), state in {}", cfg.roster.len(), cfg.state_dir.display());
    for (i, spec) in cfg.roster.iter().enumerate() {
        println!("stage {i}  : {}", spec.name);
    }
    let trace = out.trace();
    let roster_len = cfg.roster.len();
    let mut fleet = Fleet::new(cfg);
    if let Some(t) = &trace {
        fleet.set_recorder(Box::new(t.clone()));
    }
    let run = fleet.run().map_err(|e| format!("error running fleet: {e}"))?;
    if run.status == FleetStatus::Parked {
        println!(
            "parked   : {} of {} stage(s) done; rerun with the same --state-dir to resume",
            run.stages_done, roster_len
        );
        out.finish(trace.as_ref())?;
        return Ok(ExitCode::from(3));
    }
    let result = run.result.expect("completed fleet has a result");
    for d in &result.devices {
        let best_ms = d.best_latency_s * 1e3;
        println!("stage {}  : {} best {best_ms:.4} ms over {} trials", d.stage, d.name, d.trials);
    }
    for f in &result.report.forgetting {
        println!(
            "forget   : {} {:+.4} (after-training {:.4} -> final {:.4})",
            f.device, f.delta, f.score_after_training, f.final_score
        );
    }
    out.write(&result)?;
    out.finish(trace.as_ref())?;
    Ok(ExitCode::SUCCESS)
}

/// `pruner-tune serve start` — run the daemon until a shutdown request.
fn serve_start(cfg: ServeConfig) -> Exit {
    let socket = cfg.socket.display().to_string();
    let daemon = Daemon::start(cfg).map_err(|e| format!("error starting daemon: {e}"))?;
    if daemon.resumed() > 0 {
        println!("resumed  : {} in-flight campaign(s)", daemon.resumed());
    }
    println!("serving  : {socket}");
    daemon.wait_shutdown().map_err(|e| format!("error shutting down: {e}"))?;
    println!("daemon stopped");
    Ok(ExitCode::SUCCESS)
}

/// `pruner-tune serve <verb>` — send one checked request to the daemon.
fn serve_call(socket: &str, request: &Request, output: Option<String>) -> Exit {
    let mut client = Client::connect_with_retry(socket, std::time::Duration::from_secs(5))
        .map_err(|e| format!("error connecting to {socket}: {e}"))?;
    match client.call(request).map_err(|e| format!("error sending request: {e}"))? {
        Response::Submitted { campaign } => println!("submitted: {campaign}"),
        Response::Status { campaign, state, best_latency_s, result } => {
            match best_latency_s {
                Some(best) => println!("{campaign}: {state} (best {:.4} ms)", best * 1e3),
                None => println!("{campaign}: {state}"),
            }
            if let (Some(path), Some(json)) = (&output, &result) {
                write_atomic_durable(Path::new(path), json, None)
                    .map_err(|e| format!("error writing {path}: {e}"))?;
                println!("result written to {path}");
            }
        }
        Response::Cancelled { campaign } => println!("cancelled: {campaign}"),
        Response::Scores { scores } => {
            for (i, score) in scores.iter().enumerate() {
                println!("program {i}: {score}");
            }
        }
        Response::ShuttingDown => println!("daemon shutting down"),
        Response::Error { message } => return Err(format!("error from daemon: {message}")),
    }
    Ok(ExitCode::SUCCESS)
}

/// How a checked command ends: its exit code, or a self-describing
/// run-time error ("error writing …", exit 1).
type Exit = Result<ExitCode, String>;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cmd = subcommand(&argv).0;
    match plan(&argv) {
        Ok(Some(run)) => run().unwrap_or_else(|e| {
            eprintln!("{e}");
            ExitCode::FAILURE
        }),
        Ok(None) => {
            print!("{}", help(cmd));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}\n\n{}", help(cmd));
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The table accepts exactly `flags` for `cmd`, and the rendered help
    /// lists each of them on an OPTIONS line of its own.
    fn assert_help_lists(cmd: u8, flags: &str) {
        let accepted = FLAGS.iter().filter(|f| f.cmds & cmd != 0).map(|f| f.name);
        let expected: BTreeSet<&str> = flags.split_whitespace().collect();
        assert_eq!(accepted.collect::<BTreeSet<_>>(), expected, "subcommand {cmd}");
        let text = help(cmd);
        let listed: BTreeSet<&str> =
            text.lines().filter_map(|l| l.split_whitespace().next()).collect();
        assert!(expected.is_subset(&listed), "help of subcommand {cmd} misses a flag");
    }

    #[test]
    fn parses_shape_lists() {
        assert_eq!(parse_u64_list("1,512, 512 ,512", 4, "--matmul").unwrap(), [1, 512, 512, 512]);
        assert!(parse_u64_list("1,2,3", 4, "--matmul").is_err());
        assert!(parse_u64_list("1,x,3,4", 4, "--matmul").is_err());
        assert!(parse_u64_list("", 1, "--matmul").is_err());
    }

    #[test]
    fn usage_mentions_every_flag() {
        assert_help_lists(
            TUNE,
            "--platform --backend --network --matmul --conv2d --trials --seed --threads --model \
             --no-psa --fault-rate --max-retries --checkpoint --checkpoint-every --halt-after \
             --resume --deadline --watchdog-secs --max-restarts --show-schedules --output \
             --trace-out --report --store --warm-start",
        );
        assert_help_lists(RECORDS, "--store --platform --output");
        assert_help_lists(
            SERVE,
            "--socket --state-dir --workers --budget --model-dir --predict-threads --tenant \
             --campaign --model --output --platform --network --matmul --conv2d --trials --seed \
             --threads --no-psa --checkpoint-every",
        );
    }

    #[test]
    fn fleet_usage_mentions_every_flag() {
        assert_help_lists(
            FLEET,
            "--state-dir --roster --roster-file --matmul --conv2d --trials --seed --threads \
             --momentum --pretrain --probes --store --halt-after-stage --watchdog-secs \
             --max-restarts --output --trace-out --report",
        );
        assert!(help(TUNE).contains("fleet"), "top-level help must mention the fleet subcommand");
    }

    /// Every `pruner-tune` command in the fenced code blocks of README.md
    /// and docs/*.md parses and checks (it is not run). Lines continued
    /// with `\` are joined first, and `#` comments and a trailing `&` are
    /// dropped. Synopsis lines — any containing `<…>` or `[…]` — are
    /// skipped: they show the shape of a command, not one to run.
    #[test]
    fn documented_commands_parse() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let docs = std::fs::read_dir(root.join("docs")).unwrap().map(|e| e.unwrap().path());
        let (readme, mut checked) = (root.join("README.md"), 0);
        for doc in docs.chain([readme]).filter(|p| p.extension() == Some("md".as_ref())) {
            let text = std::fs::read_to_string(&doc).unwrap().replace("\\\n", " ");
            for block in text.split("```").skip(1).step_by(2) {
                for line in block.lines().map(|l| l.split('#').next().unwrap()) {
                    let words: Vec<&str> = line.split_whitespace().collect();
                    let at = words.iter().position(|w| *w == "pruner-tune");
                    let Some(at) = at.filter(|_| !line.contains(['<', '['])) else { continue };
                    let args = words[at + 1..].iter().skip_while(|w| **w == "--");
                    let argv: Vec<String> =
                        args.filter(|w| **w != "&").map(|w| w.to_string()).collect();
                    let planned = plan(&argv).map(|run| run.is_some());
                    assert_eq!(planned, Ok(true), "{}: `{line}`", doc.display());
                    checked += 1;
                }
            }
        }
        assert!(checked >= 15, "only {checked} documented commands found");
    }
}
