//! The five campaign workloads and the runner they share.
//!
//! Each workload is one fixed-shape, deterministic operation ("op")
//! repeated in a fresh process: set-up (inputs, cross-path references, a
//! warm-up), then timed repetitions. The same op runs in three modes — the
//! end-to-end path a user takes, the monolithic `tune()` path, and stepped
//! with benchmark-side spans — and a result that has a reference must
//! equal it byte for byte; references come from a *different* path.

use crate::host::{self, Obs};
use crate::layers as sys;
use crate::replay::{self, ReplayShape};
use crate::report::Report;
use std::path::PathBuf;
use std::time::Instant;

/// What a workload run is given.
pub struct Cx {
    /// `--seed`: derives campaign seeds, predict pools, foreign records.
    pub seed: u64,
    /// `--seconds`: how long the timed section measures.
    pub seconds: f64,
    /// `--trace 1`: the traced pass (per-layer metrics) instead of the
    /// end-to-end pass.
    pub trace: bool,
    /// Worker threads per campaign: `min(2, nproc)`.
    pub threads: usize,
    /// Scratch directory of this run (relative, inside `perf/out`).
    pub dir: PathBuf,
}

/// An independent stream per use of the one `--seed`.
pub fn derive(seed: u64, salt: u64) -> u64 {
    let mut z = seed.wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// How an op is driven.
#[derive(Clone, Copy, PartialEq)]
pub enum Mode {
    /// The path the end-to-end numbers are about.
    E2e,
    /// The monolithic `tune()` / `run()` path, no stepping.
    Tune,
    /// `start()` + `step()` with a span per step.
    Stepped,
}

/// What one op hands back.
pub struct OpOut {
    /// `TuningResult::best_latency_s`.
    pub tuned_latency_s: f64,
    /// `SearchStats::total_s`.
    pub sim_search_s: f64,
}

impl OpOut {
    fn of(result: &sys::TuningResult) -> OpOut {
        OpOut {
            tuned_latency_s: result.best_latency_s,
            sim_search_s: sys::sim_total_s(result),
        }
    }
}

/// A campaign workload: set-up once, then ops.
pub trait CampaignWorkload {
    /// Inputs, cross-path references and the warm-up; its wall is `setup_s`.
    fn setup(&mut self, cx: &Cx) -> Result<(), String>;
    /// Untimed per-op preparation (restore pristine files).
    fn prepare(&mut self, _cx: &Cx) -> Result<(), String> {
        Ok(())
    }
    /// Op number `rep`. A result that differs from its cross-path
    /// reference is an `Err`.
    fn op(&mut self, cx: &Cx, mode: Mode, rep: usize, obs: &mut Obs) -> Result<OpOut, String>;
    /// Untimed checks on what the op left on disk.
    fn post_check(&mut self, _cx: &Cx) -> Result<(), String> {
        Ok(())
    }
    /// Whether checkpoints are on this workload's path; the checkpoint and
    /// JSON replay (seconds long while the loader is quadratic) runs only
    /// where they are.
    fn checkpointed(&self) -> bool {
        false
    }
    /// The sizes one round of this workload runs at.
    fn replay_shape(&self, cx: &Cx) -> ReplayShape;
    /// Rounds per op (for steady-state allocation windows).
    fn rounds(&self) -> usize;
    /// Wall of the threads-1 reference campaign, when set-up ran one.
    fn serial_wall(&self) -> Option<f64> {
        None
    }
    /// Whether `Mode::E2e` differs from `Mode::Stepped` (a supervisor in
    /// between).
    fn supervised(&self) -> bool {
        false
    }
    /// Workload-specific per-layer metrics of the traced pass.
    fn extras(&mut self, _cx: &Cx, _out: &mut Report) -> Result<(), String> {
        Ok(())
    }
}

fn same_bytes(what: &str, got: &sys::TuningResult, reference: &str) -> Result<(), String> {
    if sys::result_bytes(got) == reference {
        Ok(())
    } else {
        Err(format!(
            "{what}: result bytes differ from the cross-path reference"
        ))
    }
}

/// What every finished campaign must satisfy whatever its seed: one trial
/// per measurement slot plus the warm-up, a finite incumbent, and a
/// best-so-far curve that never rises.
fn sane(result: &sys::TuningResult, config: &sys::TunerConfig, tasks: usize) -> Result<(), String> {
    let slots = (config.rounds * config.measure_per_round + tasks) as u64;
    if result.stats.trials == 0 || result.stats.trials > slots {
        return Err(format!(
            "{} trials for {slots} measurement slots",
            result.stats.trials
        ));
    }
    if !(result.best_latency_s.is_finite() && result.best_latency_s > 0.0) {
        return Err("no finite incumbent".to_string());
    }
    let curve = sys::curve_latencies(result);
    if curve.len() != config.rounds + 1 || curve.windows(2).any(|w| w[1] > w[0]) {
        return Err("the best-so-far curve is not one monotone point per round".to_string());
    }
    Ok(())
}

// ------------------------------------------------ op_online / explore_wide / net_mtl

/// A plain campaign: no checkpoint, store or recorder.
///
/// Rep `i` tunes with campaign seed `i` of the run's seed stream, so one
/// run's medians average over several seeds and two runs differ less. Rep
/// 0's seed has a reference — `tune()` at one thread, made in set-up —
/// and every op on that seed (stepped or `tune()`, at `cx.threads`) must
/// reproduce its bytes: one comparison covers threads 1 vs N and stepped
/// vs monolithic. Ops on the other seeds are held to [`sane`].
pub struct Plain {
    salt: u64,
    /// The campaign with a placeholder seed; `campaign` stamps rep seeds.
    base: sys::Campaign,
    /// Whether set-up pre-trains a Siamese model and runs with MTL.
    mtl: bool,
    reference: String,
    serial_wall: f64,
}

impl Plain {
    fn new(salt: u64, base: sys::Campaign, mtl: bool) -> Plain {
        Plain {
            salt,
            base,
            mtl,
            reference: String::new(),
            serial_wall: 0.0,
        }
    }

    /// `op_online`: the plain paper loop on one GEMM; training-bound.
    pub fn op_online() -> Plain {
        Plain::new(1, online_campaign(0, 40), false)
    }

    /// `explore_wide`: draft-then-verify at scale; proposing-bound.
    pub fn explore_wide() -> Plain {
        let config = sys::TunerConfig {
            rounds: 12,
            target_pool: 131_072,
            space_size: 4096,
            ..sys::default_config()
        };
        let workload = sys::matmul(1, 1024, 1024, 1024);
        Plain::new(
            2,
            sys::Campaign::plain(sys::spec_t4(), sys::Tasks::Op(workload), config),
            false,
        )
    }

    /// `net_mtl`: PSA + PaCM + MTL on a 37-task network.
    pub fn net_mtl() -> Plain {
        let config = sys::TunerConfig {
            rounds: 48,
            ..sys::default_config()
        };
        let tasks = sys::Tasks::Net(sys::mobilenet_v2());
        Plain::new(
            3,
            sys::Campaign::plain(sys::spec_a100(), tasks, config),
            true,
        )
    }

    fn campaign(&self, cx: &Cx, rep: usize) -> sys::Campaign {
        let mut campaign = self.base.clone();
        campaign.config.seed = derive(cx.seed, self.salt * 1000 + rep as u64);
        campaign
    }
}

/// The `op_online` campaign, which `durable_write` and `resume_read` reuse
/// so their difference to it *is* the durability cost.
fn online_campaign(seed: u64, rounds: usize) -> sys::Campaign {
    let config = sys::TunerConfig {
        rounds,
        seed,
        ..sys::default_config()
    };
    sys::Campaign::plain(
        sys::spec_t4(),
        sys::Tasks::Op(sys::matmul(1, 512, 512, 512)),
        config,
    )
}

impl CampaignWorkload for Plain {
    fn setup(&mut self, cx: &Cx) -> Result<(), String> {
        if self.mtl {
            self.base.mtl = Some(sys::pretrain(
                &sys::spec_k80(),
                &[sys::bert_tiny()],
                32,
                4,
                0,
            ));
        }
        let campaign = self.campaign(cx, 0);
        let t0 = Instant::now();
        let reference = sys::tune(campaign.builder(1));
        self.serial_wall = t0.elapsed().as_secs_f64();
        self.reference = sys::result_bytes(&reference);
        Ok(())
    }

    fn op(&mut self, cx: &Cx, mode: Mode, rep: usize, obs: &mut Obs) -> Result<OpOut, String> {
        let campaign = self.campaign(cx, rep);
        let builder = campaign.builder(cx.threads);
        let result = match mode {
            Mode::Tune => sys::tune(builder),
            Mode::E2e | Mode::Stepped => {
                let t0 = Instant::now();
                let mut tuner = sys::build_tuner(builder);
                obs.span("build", t0, Instant::now());
                sys::drive(&mut tuner, obs)?
            }
        };
        if rep == 0 {
            same_bytes("N threads vs tune() at 1 thread", &result, &self.reference)?;
        }
        sane(&result, &campaign.config, sys::task_count(&campaign.tasks))?;
        Ok(OpOut::of(&result))
    }

    fn replay_shape(&self, cx: &Cx) -> ReplayShape {
        let campaign = self.campaign(cx, 0);
        ReplayShape::of(
            &campaign.spec,
            &sys::first_task(&campaign.tasks),
            &campaign.config,
            cx.threads,
        )
    }

    fn rounds(&self) -> usize {
        self.base.config.rounds
    }

    fn serial_wall(&self) -> Option<f64> {
        Some(self.serial_wall)
    }
}

// ------------------------------------------------------------ durable_write

const FOREIGN_RECORDS: usize = 2000;

/// The `op_online` campaign with the whole write side of the durable
/// stack on: `Supervisor::run`, a checkpoint every round, a trace written
/// atomically, and a store pre-filled with foreign records. One campaign
/// seed per run: the reference is the same campaign with nothing durable
/// attached.
pub struct DurableWrite {
    plain: sys::Campaign,
    durable: sys::Campaign,
    reference: String,
    pristine_store: PathBuf,
    store: PathBuf,
    checkpoint: PathBuf,
    trace_path: PathBuf,
    last_trials: u64,
    last_events: usize,
}

impl DurableWrite {
    /// The workload, with its files under `cx.dir`.
    pub fn new(cx: &Cx) -> DurableWrite {
        let plain = online_campaign(derive(cx.seed, 1000), 40);
        let (store, checkpoint) = (cx.dir.join("store.jsonl"), cx.dir.join("checkpoint.json"));
        let mut durable = plain.clone();
        durable.config.checkpoint_every = 1;
        durable.checkpoint = Some(checkpoint.clone());
        durable.store = Some((store.clone(), false));
        DurableWrite {
            plain,
            durable,
            reference: String::new(),
            pristine_store: cx.dir.join("pristine-store.jsonl"),
            store,
            checkpoint,
            trace_path: cx.dir.join("campaign-trace.jsonl"),
            last_trials: 0,
            last_events: 0,
        }
    }
}

impl CampaignWorkload for DurableWrite {
    fn setup(&mut self, cx: &Cx) -> Result<(), String> {
        let mut store = sys::store_open(&self.pristine_store).map_err(|e| e.to_string())?;
        let foreign = sys::foreign_records(&self.plain.spec, FOREIGN_RECORDS, derive(cx.seed, 4));
        sys::store_append(&mut store, &foreign);
        sys::store_flush(&store).map_err(|e| e.to_string())?;
        // Supervised-vs-plain reference: the same campaign with nothing
        // durable attached, through tune().
        self.reference = sys::result_bytes(&sys::tune(self.plain.builder(cx.threads)));
        // Warm-up through the durable path itself (page cache, first
        // fsyncs, allocator growth).
        self.prepare(cx)?;
        self.op(cx, Mode::E2e, 0, &mut Obs::new(false))?;
        self.post_check(cx)
    }

    fn prepare(&mut self, _cx: &Cx) -> Result<(), String> {
        std::fs::copy(&self.pristine_store, &self.store).map_err(|e| e.to_string())?;
        let _ = std::fs::remove_file(&self.checkpoint);
        let _ = std::fs::remove_file(&self.trace_path);
        Ok(())
    }

    fn op(&mut self, cx: &Cx, mode: Mode, _rep: usize, obs: &mut Obs) -> Result<OpOut, String> {
        let clock = sys::RoundClock::new();
        let result = match mode {
            Mode::E2e => sys::supervise(&self.durable, cx.threads, &clock)?,
            Mode::Tune => sys::tune(sys::with_recorder(self.durable.builder(cx.threads), &clock)),
            Mode::Stepped => {
                let t0 = Instant::now();
                let mut tuner =
                    sys::build_tuner(sys::with_recorder(self.durable.builder(cx.threads), &clock));
                obs.span("build", t0, Instant::now());
                sys::drive(&mut tuner, obs)?
            }
        };
        let t0 = Instant::now();
        sys::trace_write(clock.trace(), &self.trace_path).map_err(|e| e.to_string())?;
        obs.span("trace_write", t0, Instant::now());
        if mode != Mode::Stepped {
            clock.drain_into(obs);
        }
        same_bytes("durable campaign vs plain tune()", &result, &self.reference)?;
        self.last_trials = result.stats.trials;
        self.last_events = sys::trace_events(clock.trace());
        Ok(OpOut::of(&result))
    }

    fn post_check(&mut self, _cx: &Cx) -> Result<(), String> {
        let lines = std::fs::read_to_string(&self.store)
            .map_err(|e| e.to_string())?
            .lines()
            .count();
        let expected = FOREIGN_RECORDS + self.last_trials as usize;
        if lines != expected {
            return Err(format!(
                "store holds {lines} lines, expected {expected} (prefill + stats.trials)"
            ));
        }
        if !self.trace_path.exists() {
            return Err("the campaign trace was not written".to_string());
        }
        Ok(())
    }

    fn checkpointed(&self) -> bool {
        true
    }

    fn replay_shape(&self, cx: &Cx) -> ReplayShape {
        let campaign = &self.durable;
        ReplayShape::of(
            &campaign.spec,
            &sys::first_task(&campaign.tasks),
            &campaign.config,
            cx.threads,
        )
    }

    fn rounds(&self) -> usize {
        self.durable.config.rounds
    }

    fn supervised(&self) -> bool {
        true
    }

    fn extras(&mut self, cx: &Cx, out: &mut Report) -> Result<(), String> {
        // trace: the plain campaign without and with a TraceHandle,
        // alternating; best of two each, since host noise only adds time.
        let plain = &self.plain;
        let (mut bare, mut traced) = (Vec::new(), Vec::new());
        let mut trace = sys::TraceHandle::new();
        for _ in 0..2 {
            let t0 = Instant::now();
            sys::tune(plain.builder(cx.threads));
            bare.push(t0.elapsed().as_secs_f64());
            trace = sys::TraceHandle::new();
            let t0 = Instant::now();
            sys::tune(sys::with_trace(plain.builder(cx.threads), &trace));
            traced.push(t0.elapsed().as_secs_f64());
        }
        let (write_s, ()) = host::time_median(3, || {
            sys::trace_write(&trace, &self.trace_path).expect("trace write");
        });
        out.put(
            "trace.overhead",
            host::min(&traced) / host::min(&bare) - 1.0,
        );
        out.put("trace.events_per_campaign", self.last_events as f64);
        out.put("trace.write_ms", write_s * 1e3);
        Ok(())
    }
}

// -------------------------------------------------------------- resume_read

/// The read side of the durable stack: (a) resume a checkpoint parked at
/// round 10 of 15 with its store and finish it; (b) warm-start a new seed
/// on the same shape from the now-populated store, 5 rounds. One campaign
/// seed per run: the pristine checkpoint belongs to it.
pub struct ResumeRead {
    full: sys::Campaign,
    warm: sys::Campaign,
    uninterrupted: String,
    warm_reference: Option<String>,
    pristine_checkpoint: PathBuf,
    pristine_store: PathBuf,
    checkpoint: PathBuf,
    store: PathBuf,
}

impl ResumeRead {
    /// The workload, with its files under `cx.dir`.
    pub fn new(cx: &Cx) -> ResumeRead {
        let store = cx.dir.join("store.jsonl");
        let mut warm = online_campaign(derive(cx.seed, 5), 5);
        warm.store = Some((store.clone(), true));
        ResumeRead {
            full: online_campaign(derive(cx.seed, 1000), 15),
            warm,
            uninterrupted: String::new(),
            warm_reference: None,
            pristine_checkpoint: cx.dir.join("pristine-checkpoint.json"),
            pristine_store: cx.dir.join("pristine-store.jsonl"),
            checkpoint: cx.dir.join("checkpoint.json"),
            store,
        }
    }
}

impl CampaignWorkload for ResumeRead {
    fn setup(&mut self, cx: &Cx) -> Result<(), String> {
        // Resumed-vs-uninterrupted reference: the 15 rounds in one go.
        self.uninterrupted = sys::result_bytes(&sys::tune(self.full.builder(cx.threads)));

        // The interrupted campaign: halt after round 10, leaving its
        // round-10 checkpoint and a store of everything measured so far.
        let mut halted = self.full.clone();
        halted.config.checkpoint_every = 5;
        halted.config.halt_after = Some(10);
        halted.checkpoint = Some(self.pristine_checkpoint.clone());
        halted.store = Some((self.pristine_store.clone(), false));
        sys::tune(halted.builder(cx.threads));

        // Warm-up op; its part (b) result is the reference later reps must
        // reproduce from the same pristine files.
        self.prepare(cx)?;
        self.op(cx, Mode::E2e, 0, &mut Obs::new(false))?;
        Ok(())
    }

    fn prepare(&mut self, _cx: &Cx) -> Result<(), String> {
        std::fs::copy(&self.pristine_checkpoint, &self.checkpoint).map_err(|e| e.to_string())?;
        std::fs::copy(&self.pristine_store, &self.store).map_err(|e| e.to_string())?;
        Ok(())
    }

    fn op(&mut self, cx: &Cx, mode: Mode, _rep: usize, obs: &mut Obs) -> Result<OpOut, String> {
        // (a) resume and finish.
        let t0 = Instant::now();
        let mut tuner = sys::resume(&self.checkpoint).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        obs.span("checkpoint_load", t0, t1);
        sys::attach_store(&mut tuner, &self.store, false).map_err(|e| e.to_string())?;
        obs.span("store_open", t1, Instant::now());
        let resumed = match mode {
            Mode::Tune => sys::run(&mut tuner),
            Mode::E2e | Mode::Stepped => sys::drive(&mut tuner, obs)?,
        };
        same_bytes("resumed vs uninterrupted", &resumed, &self.uninterrupted)?;

        // (b) warm start from the store (a) just completed.
        let warm = &self.warm;
        let warmed = match mode {
            Mode::Tune => sys::tune(warm.builder(cx.threads)),
            Mode::E2e | Mode::Stepped => {
                let t0 = Instant::now();
                let mut tuner = sys::build_tuner(warm.builder(cx.threads));
                obs.span("build", t0, Instant::now());
                sys::drive(&mut tuner, obs)?
            }
        };
        let bytes = sys::result_bytes(&warmed);
        match &self.warm_reference {
            None => self.warm_reference = Some(bytes),
            Some(reference) if *reference == bytes => {}
            Some(_) => {
                return Err("warm start from identical files is not reproducible".to_string())
            }
        }
        Ok(OpOut {
            tuned_latency_s: warmed.best_latency_s,
            sim_search_s: sys::sim_total_s(&resumed) + sys::sim_total_s(&warmed),
        })
    }

    fn checkpointed(&self) -> bool {
        true
    }

    fn replay_shape(&self, cx: &Cx) -> ReplayShape {
        let campaign = &self.full;
        ReplayShape::of(
            &campaign.spec,
            &sys::first_task(&campaign.tasks),
            &campaign.config,
            cx.threads,
        )
    }

    fn rounds(&self) -> usize {
        10
    }

    fn extras(&mut self, cx: &Cx, out: &mut Report) -> Result<(), String> {
        // store: what the warm start saved against the same campaign cold.
        let mut cold = self.warm.clone();
        cold.store = None;
        let cold_trials = sys::tune(cold.builder(cx.threads)).stats.trials;
        let reference = self.warm_reference.as_ref().expect("warm-up ran");
        let warm_trials = sys::parse_result(reference)
            .map(|r| r.stats.trials)
            .unwrap_or(0);
        out.put(
            "store.trials_saved_ratio",
            1.0 - warm_trials as f64 / cold_trials.max(1) as f64,
        );
        Ok(())
    }
}

// ------------------------------------------------------------------- runner

const MIN_REPS: usize = 3;
const TRACED_REPS: usize = 2;

/// Runs a campaign workload: the end-to-end pass, or with `cx.trace` the
/// traced pass plus the layer replay.
pub fn run(name: &'static str, workload: &mut dyn CampaignWorkload, cx: &Cx) -> (Report, Obs) {
    let mut report = Report::default();
    let t_setup = Instant::now();
    if let Err(why) = workload.setup(cx) {
        report.attempted = 1;
        report.fail(format!("set-up: {why}"));
        return (report, Obs::new(false));
    }
    let setup_s = t_setup.elapsed().as_secs_f64();
    if cx.trace {
        let obs = traced_pass(name, workload, cx, &mut report);
        (report, obs)
    } else {
        let obs = end_to_end_pass(workload, cx, setup_s, &mut report);
        (report, obs)
    }
}

/// One timed op: `(wall, cpu, output)`.
fn timed_op(
    workload: &mut dyn CampaignWorkload,
    cx: &Cx,
    mode: Mode,
    rep: usize,
    obs: &mut Obs,
    report: &mut Report,
) -> Option<(f64, f64, OpOut)> {
    report.attempted += 1;
    if let Err(why) = workload.prepare(cx) {
        report.fail(format!("rep {rep} prepare: {why}"));
        return None;
    }
    obs.begin_op(rep);
    // The traced pass repeats rep 0's op — the seed with a reference —
    // and `rep` only labels its spans.
    let seed_rep = if cx.trace { 0 } else { rep };
    let cpu0 = host::cpu_seconds();
    let t0 = Instant::now();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        workload.op(cx, mode, seed_rep, obs)
    }));
    let t1 = Instant::now();
    let cpu = host::cpu_seconds() - cpu0;
    obs.end_op("op", t0, t1);
    let out = match outcome {
        Ok(Ok(out)) => out,
        Ok(Err(why)) => {
            report.fail(format!("rep {rep}: {why}"));
            return None;
        }
        Err(_) => {
            report.fail(format!("rep {rep}: the campaign panicked"));
            return None;
        }
    };
    if let Err(why) = workload.post_check(cx) {
        report.fail(format!("rep {rep}: {why}"));
        return None;
    }
    Some((t1.duration_since(t0).as_secs_f64(), cpu, out))
}

fn end_to_end_pass(
    workload: &mut dyn CampaignWorkload,
    cx: &Cx,
    setup_s: f64,
    report: &mut Report,
) -> Obs {
    let mut obs = Obs::new(false);
    let (mut walls, mut cpus, mut sims) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    for rep in 0.. {
        // Stop once the next op would end further from `--seconds` than
        // this one did, but never before MIN_REPS.
        let typical = if walls.is_empty() {
            0.0
        } else {
            host::median(&walls)
        };
        if rep >= MIN_REPS && started.elapsed().as_secs_f64() + typical / 2.0 >= cx.seconds {
            break;
        }
        match timed_op(workload, cx, Mode::E2e, rep, &mut obs, report) {
            Some((wall, cpu, out)) => {
                walls.push(wall);
                cpus.push(cpu);
                sims.push(out.sim_search_s);
            }
            None if report.failed >= 3 => break,
            None => {}
        }
    }
    if walls.is_empty() {
        return obs;
    }
    report.put("wall_s", host::median(&walls));
    // The CPU clock ticks at 10 ms: total over the section, not a median.
    report.put("cpu_s", cpus.iter().sum::<f64>() / cpus.len() as f64);
    // A turn is one tuning round: the gap between two moments at which a
    // round's measurements are in hand.
    report.put("turn_p50_ms", host::median(&obs.round_gaps) * 1e3);
    report.put("turn_p90_ms", host::percentile(&obs.round_gaps, 90.0) * 1e3);
    report.put(
        "turns_per_s",
        obs.round_gaps.len() as f64 / obs.round_gaps.iter().sum::<f64>(),
    );
    report.put("setup_s", setup_s);
    report.put("sim_search_s", host::median(&sims));
    report.note(format!(
        "reps={} turn_samples={} (turn = tuning round)",
        walls.len(),
        obs.round_gaps.len()
    ));
    report.put("peak_rss_mb", host::peak_rss_mb());
    obs
}

fn traced_pass(
    name: &'static str,
    workload: &mut dyn CampaignWorkload,
    cx: &Cx,
    report: &mut Report,
) -> Obs {
    let mut obs = Obs::new(true);
    let mut quiet = Obs::new(false);
    let (mut tune_walls, mut stepped_walls, mut e2e_walls) = (Vec::new(), Vec::new(), Vec::new());
    host::count_allocs(true);
    // The paths alternate so that drift in the host hits them alike.
    for rep in 0..TRACED_REPS {
        if let Some((wall, _, out)) = timed_op(workload, cx, Mode::Tune, rep, &mut quiet, report) {
            tune_walls.push(wall);
            // Exact and deterministic per seed: compare it between two
            // commits at the same --seed, not across seeds.
            report.put("tuned_latency_us", out.tuned_latency_s * 1e6);
        }
        if let Some((wall, _, _)) = timed_op(workload, cx, Mode::Stepped, rep, &mut obs, report) {
            stepped_walls.push(wall);
        }
        if workload.supervised() && rep == 0 {
            if let Some((wall, _, _)) = timed_op(workload, cx, Mode::E2e, rep, &mut quiet, report) {
                e2e_walls.push(wall);
            }
        }
    }
    host::count_allocs(false);
    if stepped_walls.len() < TRACED_REPS || tune_walls.len() < TRACED_REPS {
        return obs;
    }

    // tuner: where the stepped wall went, by phase.
    let reps = TRACED_REPS as f64;
    let phase = |label: &str| {
        (0..TRACED_REPS)
            .map(|r| obs.span_total(label, r))
            .sum::<f64>()
            / reps
    };
    let stepped_wall = stepped_walls.iter().sum::<f64>() / reps;
    report.put("tuner.init_s", phase("init"));
    report.put("tuner.propose_s", phase("proposing"));
    report.put("tuner.measure_s", phase("measuring"));
    report.put("tuner.train_s", phase("training"));
    report.put("tuner.checkpoint_s", phase("checkpoint_due"));
    report.put("tuner.train_share", phase("training") / stepped_wall);
    report.put("tuner.round_p50_ms", host::median(&obs.round_gaps) * 1e3);
    report.put(
        "round_p90_ms",
        host::percentile(&obs.round_gaps, 90.0) * 1e3,
    );
    let mut names: Vec<&'static str> = Vec::new();
    for span in obs.spans.iter().filter(|s| s.parent != 0) {
        if !names.contains(&span.name) {
            names.push(span.name);
        }
    }
    for label in names {
        report.note(format!(
            "span {label:<16} {:>9.4} s/op  {:>5.1} % of stepped wall",
            phase(label),
            100.0 * phase(label) / stepped_wall
        ));
    }
    // Honesty gate: the spans must account for the stepped wall.
    for (rep, wall) in stepped_walls.iter().enumerate() {
        let covered = obs.children_total(rep);
        if (covered - wall).abs() > 0.02 * wall {
            report.fail(format!(
                "rep {rep}: spans cover {covered:.4}s of a {wall:.4}s stepped op (>2% apart)"
            ));
        }
    }
    report.note(format!("walls: tune() {tune_walls:.3?}  stepped+spans {stepped_walls:.3?}  supervised {e2e_walls:.3?}"));
    // Best rep of each path: host noise only ever adds time.
    report.put(
        "perf.span_overhead",
        host::min(&stepped_walls) / host::min(&tune_walls) - 1.0,
    );
    if !e2e_walls.is_empty() {
        report.put(
            "tuner.supervisor_overhead",
            host::min(&e2e_walls) / host::min(&stepped_walls) - 1.0,
        );
    }
    if let Some(serial) = workload.serial_wall() {
        report.put("tuner.par_speedup", serial / host::min(&tune_walls));
    }
    // Allocation marks are taken at every round boundary of the traced
    // reps; the steady state is the second half of the last rep.
    let rounds = workload.rounds();
    let marks = &obs.alloc_marks;
    if rounds >= 2 && marks.len() > rounds / 2 {
        let tail = &marks[marks.len() - 1 - rounds / 2..];
        let (first, last) = (tail[0], tail[tail.len() - 1]);
        let span = (tail.len() - 1) as f64;
        report.put("tuner.allocs_per_round", (last.0 - first.0) as f64 / span);
        report.put(
            "tuner.alloc_mb_per_round",
            (last.1 - first.1) as f64 / span / 1e6,
        );
    }

    // Layer replay (labelled as replay in the README and the notes).
    report.note(
        "layer metrics outside tuner.* phases are REPLAY numbers: same sizes, outside the campaign",
    );
    let shape = workload.replay_shape(cx);
    replay::pipeline(&shape, derive(cx.seed, 6), report);
    if workload.checkpointed() {
        // Both durable workloads tune the op_online shape: replay its
        // state after ten rounds, where resume_read parks it.
        replay::checkpoint(
            &online_campaign(derive(cx.seed, 9), 10),
            cx.threads,
            &cx.dir,
            report,
        );
    }
    replay::store(
        &shape.spec,
        FOREIGN_RECORDS,
        400,
        derive(cx.seed, 7),
        &cx.dir,
        report,
    );
    replay::serve_codec(&shape.spec, &shape.workload, derive(cx.seed, 8), report);
    replay::facade_build(report);
    if let Err(why) = workload.extras(cx, report) {
        report.attempted += 1;
        report.fail(format!("{name} extras: {why}"));
    }
    obs
}
