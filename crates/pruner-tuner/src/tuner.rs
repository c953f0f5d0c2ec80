//! The tuning orchestrator: rounds, task scheduling, model updates.

use crate::checkpoint::{Checkpoint, MeasurerCheckpoint, TaskCheckpoint};
use crate::curve::{CurvePoint, TuningCurve};
use crate::measure::{MeasureOutcome, Measurer, RetryPolicy, SearchStats, TimeModel};
use crate::mtl::{fit_recorded, Mtl};
use crate::state::{CampaignPhase, CampaignStatus};
use crate::task::{ProposeParams, TaskTuner};
use pruner_cost::{CostModel, ModelKind, PacmModel, Sample};
use pruner_gpu::{Backend, FaultModel, GpuSpec, Simulator};
use pruner_ir::{Network, Workload};
use pruner_psa::{Psa, PsaConfig};
use pruner_sketch::CandidateArena;
use pruner_store::{IoFaults, RecordOutcome, SharedStore, Store, TuningRecord};
use pruner_trace::{NoopRecorder, Record, Recorder};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};

/// Seed salt separating the fault stream from measurement noise and the
/// campaign RNG.
const FAULT_SEED_SALT: u64 = 0xFA17_FA17_FA17_FA17;

/// Seed salt deriving the retry-backoff jitter stream from the campaign
/// seed (distinct from the fault and candidate streams).
const JITTER_SEED_SALT: u64 = 0x0B4C_0FF0_0B4C_0FF0;

/// How the tuner obtains and updates its cost model.
#[allow(clippy::large_enum_variant)] // configuration object, built once per campaign
pub enum ModelSetup {
    /// Train a fresh model online from this campaign's measurements only
    /// (Ansor, Pruner w/o MTL).
    Fresh(ModelKind),
    /// Start from a pre-trained model and fine-tune it online without any
    /// stabilization (TensetMLP / TLP / Pruner offline mode).
    Offline(Box<dyn CostModel>),
    /// Momentum Transfer Learning around a pre-trained PaCM (full Pruner).
    Mtl {
        /// The cross-platform pre-trained Siamese model.
        pretrained: PacmModel,
        /// Momentum coefficient (paper: 0.99).
        momentum: f32,
    },
}

/// Campaign parameters. Defaults follow the paper's setup: 200 rounds × 10
/// measurements = 2,000 trials, target space 512, with a small ε share of
/// the original space retained.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TunerConfig {
    /// Tuning rounds.
    pub rounds: usize,
    /// Programs measured per round.
    pub measure_per_round: usize,
    /// Candidate sample-space size per round (`s` in §2.1).
    pub space_size: usize,
    /// Per-round sample-pool size the GA generates and PSA drafts from.
    pub target_pool: usize,
    /// Whether PSA pruning is enabled.
    pub use_psa: bool,
    /// Fraction of each round's sample space drawn from the *original*
    /// space to keep solutions beyond the pruned space reachable.
    pub epsilon: f64,
    /// Fine-tuning epochs per round for fresh/offline models.
    pub train_epochs: usize,
    /// Fine-tuning epochs per MTL round (the target restarts from the
    /// Siamese weights each round, so it needs enough steps to adapt).
    pub mtl_epochs: usize,
    /// Upper bound on the training window (most recent labeled samples).
    pub train_window: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Worker threads for the candidate-evaluation pipeline (generation,
    /// PSA drafting, feature extraction, cost-model inference). `1` runs
    /// the pipeline serially; any value produces bit-identical results.
    #[serde(default = "default_threads")]
    pub threads: usize,
    /// Composite hardware-failure rate injected into the measurement path
    /// (0 disables fault injection entirely; the zero-fault campaign is
    /// bit-identical to a fault-unaware build).
    #[serde(default)]
    pub fault_rate: f64,
    /// Extra measurement attempts allowed after a failed attempt before
    /// the candidate is quarantined.
    #[serde(default = "default_max_retries")]
    pub max_retries: u32,
    /// Relative jitter on the retry backoff (`0.25` spreads each charged
    /// backoff uniformly within ±25% of its exponential base, drawn from
    /// a seeded stream so campaigns stay deterministic). `0.0` — the
    /// default — reproduces the exact historical backoff ledger.
    #[serde(default)]
    pub backoff_jitter: f64,
    /// Rounds between checkpoint writes (0 disables periodic writes;
    /// checkpoints are only written when a path is configured).
    #[serde(default = "default_checkpoint_every")]
    pub checkpoint_every: usize,
    /// Stop after this many rounds even if `rounds` is larger — the
    /// "kill" half of kill-and-resume testing.
    #[serde(default)]
    pub halt_after: Option<usize>,
}

/// Default worker count: the host's available parallelism.
fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Default retry budget after a failed measurement attempt.
fn default_max_retries() -> u32 {
    2
}

/// Default checkpoint cadence, in rounds.
fn default_checkpoint_every() -> usize {
    5
}

impl Default for TunerConfig {
    fn default() -> Self {
        TunerConfig {
            rounds: 200,
            measure_per_round: 10,
            space_size: 512,
            target_pool: 2048,
            use_psa: true,
            epsilon: 0.2,
            train_epochs: 2,
            mtl_epochs: 3,
            train_window: 1536,
            seed: 42,
            threads: default_threads(),
            fault_rate: 0.0,
            max_retries: default_max_retries(),
            backoff_jitter: 0.0,
            checkpoint_every: default_checkpoint_every(),
            halt_after: None,
        }
    }
}

impl TunerConfig {
    /// A scaled-down config for tests and quick demos.
    pub fn quick() -> TunerConfig {
        TunerConfig {
            rounds: 10,
            measure_per_round: 4,
            space_size: 64,
            target_pool: 256,
            ..TunerConfig::default()
        }
    }
}

/// Outcome of a tuning campaign.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TuningResult {
    /// Best-so-far trajectory (weighted end-to-end latency for networks).
    pub curve: TuningCurve,
    /// The simulated-time ledger.
    pub stats: SearchStats,
    /// Final best weighted latency, seconds.
    pub best_latency_s: f64,
    /// Final best latency per task, in task order.
    pub per_task_best: Vec<(Workload, f64)>,
    /// The winning schedule per task, in task order (present whenever the
    /// task was measured at least once).
    pub best_programs: Vec<Option<pruner_sketch::Program>>,
}

/// Where a campaign's tuning records go: nowhere, its own [`Store`], or a
/// [`SharedStore`] handle multiplexed across concurrent campaigns (the
/// `pruner-serve` daemon). Every store touchpoint in the state machine
/// goes through this slot, so the two attachment modes behave
/// identically — the shared mode just takes the store's lock per
/// operation.
enum StoreSlot {
    /// No store attached.
    Detached,
    /// A store owned by this campaign alone.
    Owned(Box<Store>),
    /// A handle to a store shared with concurrent campaigns.
    Shared(SharedStore),
}

impl StoreSlot {
    fn attached(&self) -> bool {
        !matches!(self, StoreSlot::Detached)
    }

    /// Appends (deduplicating); `false` when detached or already stored.
    fn append(&mut self, record: TuningRecord) -> bool {
        match self {
            StoreSlot::Detached => false,
            StoreSlot::Owned(store) => store.append(record),
            StoreSlot::Shared(store) => store.append(record),
        }
    }

    /// Flushes the store; a no-op success when detached.
    fn flush(&self) -> std::io::Result<()> {
        match self {
            StoreSlot::Detached => Ok(()),
            StoreSlot::Owned(store) => store.flush(),
            StoreSlot::Shared(store) => store.flush(),
        }
    }

    /// Runs `f` against the store (under the lock for a shared one).
    fn with<R>(&self, f: impl FnOnce(&Store) -> R) -> Option<R> {
        match self {
            StoreSlot::Detached => None,
            StoreSlot::Owned(store) => Some(f(store)),
            StoreSlot::Shared(store) => Some(store.with(f)),
        }
    }
}

/// The tuning campaign driver.
///
/// Add tasks (or a whole network), then [`Tuner::run`]. Each round the
/// scheduler picks the most promising task, the task proposes candidates
/// from its (optionally PSA-pruned) space, the best-scored candidates are
/// measured, and the cost model is updated — by plain fitting, or by an MTL
/// round when configured.
///
/// The tuner is generic over the measurement [`Backend`]; the default is
/// the analytical [`Simulator`], and every constructor without an explicit
/// backend builds a simulator-backed campaign.
pub struct Tuner<B: Backend = Simulator> {
    cfg: TunerConfig,
    spec: GpuSpec,
    psa_cfg: PsaConfig,
    measurer: Measurer<B>,
    psa: Option<Psa>,
    limits: pruner_sketch::HardwareLimits,
    tasks: Vec<TaskTuner>,
    model: Box<dyn CostModel>,
    mtl: Option<Mtl>,
    rng: ChaCha8Rng,
    checkpoint_path: Option<PathBuf>,
    recorder: Box<dyn Recorder>,
    store: StoreSlot,
    warm_start: bool,
    /// Cache keys pre-seeded from the store this run — distinguishes a
    /// store hit (measurement avoided) from an ordinary cache hit.
    store_seeded: HashSet<String>,
    /// The campaign state machine's current phase — exactly what a
    /// checkpoint captures.
    phase: CampaignPhase,
    /// Best-so-far trajectory; grows one point per warm-up/round.
    curve: TuningCurve,
    /// Whether [`Tuner::start`] has opened the campaign span/records.
    started: bool,
    /// Whether this tuner was rebuilt from a checkpoint (emits a `resume`
    /// record and skips any phase already completed).
    resumed: bool,
    /// Optional seeded fault injector for *checkpoint* writes (the store
    /// carries its own); chaos harnesses only.
    io_faults: Option<IoFaults>,
    /// The campaign's one candidate arena, lent to every task's
    /// [`TaskTuner::propose`]: one per campaign, not per task, so a
    /// many-task network holds one pool.
    arena: CandidateArena,
}

impl Tuner {
    /// Creates a simulator-backed tuner for one platform.
    pub fn new(spec: GpuSpec, cfg: TunerConfig, setup: ModelSetup) -> Tuner {
        let sim = Simulator::new(spec.clone());
        Tuner::with_backend(spec, cfg, setup, PsaConfig::default(), sim)
    }

    /// Rebuilds a simulator-backed tuner from an in-memory checkpoint.
    ///
    /// # Panics
    /// Panics if the checkpoint was written by a different backend or its
    /// backend configuration is corrupt; [`Tuner::from_checkpoint_backend`]
    /// is the fallible form.
    pub fn from_checkpoint(ckpt: Checkpoint) -> Tuner {
        Tuner::from_checkpoint_backend(ckpt).expect("checkpoint backend mismatch")
    }
}

impl<B: Backend> Tuner<B> {
    /// Creates a tuner measuring through an explicit [`Backend`].
    ///
    /// `cfg.fault_rate` is installed through
    /// [`Backend::install_fault_model`]; backends that measure real
    /// hardware ignore it (their faults are real, not injected).
    pub fn with_backend(
        spec: GpuSpec,
        cfg: TunerConfig,
        setup: ModelSetup,
        psa_cfg: PsaConfig,
        mut backend: B,
    ) -> Tuner<B> {
        if cfg.fault_rate > 0.0 {
            backend.install_fault_model(Some(FaultModel::from_rate(
                cfg.seed ^ FAULT_SEED_SALT,
                cfg.fault_rate,
            )));
        }
        let limits = spec.limits();
        let psa = cfg.use_psa.then(|| Psa::with_config(spec.clone(), psa_cfg));
        let (model, mtl): (Box<dyn CostModel>, Option<Mtl>) = match setup {
            ModelSetup::Fresh(kind) => (kind.build(cfg.seed), None),
            ModelSetup::Offline(model) => (model, None),
            ModelSetup::Mtl { pretrained, momentum } => {
                let mtl = Mtl::new(pretrained.clone(), momentum);
                (Box::new(pretrained), Some(mtl))
            }
        };
        let mut measurer = Measurer::new(backend);
        measurer.set_retry_policy(RetryPolicy {
            max_retries: cfg.max_retries,
            backoff_jitter: cfg.backoff_jitter,
            jitter_seed: cfg.seed ^ JITTER_SEED_SALT,
            ..RetryPolicy::default()
        });
        Tuner {
            cfg,
            spec,
            psa_cfg,
            measurer,
            psa,
            limits,
            tasks: Vec::new(),
            model,
            mtl,
            rng: ChaCha8Rng::seed_from_u64(cfg.seed),
            checkpoint_path: None,
            recorder: Box::new(NoopRecorder),
            store: StoreSlot::Detached,
            warm_start: false,
            store_seeded: HashSet::new(),
            phase: CampaignPhase::Init,
            curve: TuningCurve::new(),
            started: false,
            resumed: false,
            io_faults: None,
            arena: CandidateArena::default(),
        }
    }

    /// Overrides the time-cost constants (calibration experiments),
    /// preserving the measurement cache and the simulated-time ledger.
    pub fn set_time_model(&mut self, time: TimeModel) {
        self.measurer.set_time_model(time);
    }

    /// Enables periodic checkpointing to `path` (every
    /// [`TunerConfig::checkpoint_every`] rounds, written atomically).
    pub fn set_checkpoint_path<P: Into<PathBuf>>(&mut self, path: P) {
        self.checkpoint_path = Some(path.into());
    }

    /// Restores a campaign from a checkpoint file, rebuilding this
    /// backend type from the checkpoint's embedded backend configuration
    /// (`Tuner::<Simulator>::resume`, `Tuner::<CpuExec>::resume`). The
    /// resumed campaign continues from the first unfinished round and
    /// produces a byte-identical [`TuningResult`] to the uninterrupted
    /// run. Fails if the checkpoint was written by a different backend.
    pub fn resume<P: AsRef<Path>>(path: P) -> std::io::Result<Tuner<B>> {
        let ckpt = Checkpoint::load(path.as_ref())?;
        Tuner::from_checkpoint_backend(ckpt)
    }

    /// Rebuilds a tuner from an in-memory checkpoint. Fails if the
    /// checkpoint's backend tag does not match `B` or its backend
    /// configuration does not parse.
    pub fn from_checkpoint_backend(ckpt: Checkpoint) -> std::io::Result<Tuner<B>> {
        if ckpt.measurer.backend_tag != B::TAG {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "checkpoint was written by backend `{}`, not `{}`",
                    ckpt.measurer.backend_tag,
                    B::TAG
                ),
            ));
        }
        let backend = B::from_checkpoint_config(&ckpt.spec, &ckpt.measurer.backend_cfg)?;
        let cfg = ckpt.config;
        let limits = ckpt.spec.limits();
        let psa =
            cfg.use_psa.then(|| Psa::with_config(ckpt.spec.clone(), ckpt.psa_cfg));
        let measurer = Measurer::from_parts(
            backend,
            ckpt.measurer.time,
            ckpt.measurer.policy,
            ckpt.measurer.cache,
            ckpt.measurer.stats,
            ckpt.measurer.attempts,
        );
        let tasks = ckpt
            .tasks
            .into_iter()
            .map(|t| {
                TaskTuner::from_checkpoint(
                    t.workload,
                    t.task_id,
                    t.weight,
                    t.measured,
                    t.quarantined,
                    t.quarantined_fps,
                    t.rounds_since_improvement,
                )
            })
            .collect();
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        rng.set_word_offset(ckpt.rng_word_offset);
        Ok(Tuner {
            cfg,
            spec: ckpt.spec,
            psa_cfg: ckpt.psa_cfg,
            measurer,
            psa,
            limits,
            tasks,
            model: ckpt.model.into_model(),
            mtl: ckpt.mtl,
            rng,
            checkpoint_path: None,
            recorder: Box::new(NoopRecorder),
            store: StoreSlot::Detached,
            warm_start: false,
            store_seeded: HashSet::new(),
            phase: ckpt.phase,
            curve: ckpt.curve,
            started: false,
            resumed: true,
            io_faults: None,
            arena: CandidateArena::default(),
        })
    }

    /// Installs a [`Recorder`] for the campaign (e.g. a cloned
    /// [`pruner_trace::TraceHandle`]). The recorder only *observes*: a
    /// traced campaign produces results, checkpoints and goldens
    /// byte-identical to an untraced one. The default is the
    /// [`NoopRecorder`], which costs nothing.
    pub fn set_recorder(&mut self, recorder: Box<dyn Recorder>) {
        self.recorder = recorder;
    }

    /// Attaches a persistent tuning-record store (see `pruner-store` and
    /// `docs/STORE_FORMAT.md`). Every fresh measurement verdict — success
    /// or quarantine — is appended during the run and flushed atomically
    /// at every checkpoint write and at campaign end.
    ///
    /// With `warm_start` set, a campaign starting from round 0 first
    /// *replays* the store's matching records (same platform fingerprint,
    /// same task workloads): the measurement cache, elite pools and
    /// quarantine sets are pre-seeded and the cost model is pre-trained
    /// from the logged successes, all free of simulated search time.
    /// Without `warm_start` the store is record-only and the campaign is
    /// bit-identical to a store-less run. A *resumed* campaign never
    /// replays regardless of the flag — its checkpoint already contains
    /// every effect of the measurements it made.
    pub fn set_store(&mut self, store: Store, warm_start: bool) {
        self.store = StoreSlot::Owned(Box::new(store));
        self.warm_start = warm_start;
    }

    /// Attaches a [`SharedStore`] handle instead of an owned store:
    /// several concurrent campaigns (the `pruner-serve` tenants) append
    /// to one log, deduplicated under its lock. Identical semantics to
    /// [`Tuner::set_store`] otherwise — including `warm_start` replay,
    /// which snapshots the matching records under the lock.
    pub fn set_shared_store(&mut self, store: SharedStore, warm_start: bool) {
        self.store = StoreSlot::Shared(store);
        self.warm_start = warm_start;
    }

    /// The attached *owned* record store, if any (e.g. to report how many
    /// fresh records the campaign contributed). A shared store has no
    /// single owner and is observed through its own handle instead.
    pub fn store(&self) -> Option<&Store> {
        match &self.store {
            StoreSlot::Owned(store) => Some(store),
            _ => None,
        }
    }

    /// The campaign's Momentum-Transfer-Learning state, when configured
    /// with [`ModelSetup::Mtl`] — read it after the run to carry the
    /// evolved Siamese weights to the next platform (the cross-hardware
    /// fleet does exactly this; see `crate::fleet` and `docs/FLEET.md`).
    pub fn mtl(&self) -> Option<&Mtl> {
        self.mtl.as_ref()
    }

    /// Snapshots the complete campaign state at `phase`.
    ///
    /// # Panics
    /// Panics if the cost model does not support snapshotting (a custom
    /// [`ModelSetup::Offline`] model without
    /// [`CostModel::snapshot`]).
    fn make_checkpoint(&self, phase: CampaignPhase) -> Checkpoint {
        let next_round = phase.round().min(self.cfg.rounds);
        Checkpoint {
            version: Checkpoint::VERSION,
            // `halt_after` models the kill in kill-and-resume testing; a
            // resumed campaign runs to completion.
            config: TunerConfig { halt_after: None, ..self.cfg },
            spec: self.spec.clone(),
            psa_cfg: self.psa_cfg,
            next_round,
            phase,
            curve: self.curve.clone(),
            tasks: self
                .tasks
                .iter()
                .map(|t| TaskCheckpoint {
                    workload: t.workload.clone(),
                    task_id: t.task_id,
                    weight: t.weight,
                    measured: t.measured_log().to_vec(),
                    quarantined: t.quarantined_keys(),
                    quarantined_fps: t.quarantined_fps(),
                    rounds_since_improvement: t.rounds_since_improvement(),
                })
                .collect(),
            measurer: MeasurerCheckpoint {
                time: *self.measurer.time_model(),
                policy: *self.measurer.retry_policy(),
                backend_tag: B::TAG.to_string(),
                backend_cfg: self.measurer.backend().checkpoint_config(),
                cache: self.measurer.cache_entries(),
                stats: self.measurer.stats(),
                attempts: self.measurer.attempts(),
            },
            model: self
                .model
                .snapshot()
                .expect("checkpointing requires a snapshot-capable cost model"),
            mtl: self.mtl.clone(),
            rng_word_offset: self.rng.word_offset(),
        }
    }

    /// Adds one tuning task.
    pub fn add_task(&mut self, workload: Workload, weight: u64) -> &mut Self {
        let id = self.tasks.len();
        self.tasks.push(TaskTuner::new(workload, id, weight));
        self
    }

    /// Adds every subgraph of a network as a weighted task.
    pub fn add_network(&mut self, net: &Network) -> &mut Self {
        for sg in net.subgraphs() {
            self.add_task(sg.workload.clone(), sg.weight);
        }
        self
    }

    /// Number of registered tasks.
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Runs the campaign to completion and returns the result: exactly
    /// [`Tuner::start`] followed by [`Tuner::step`] until the state
    /// machine reports done.
    ///
    /// Failed measurements (injected hardware faults that survive the
    /// retry budget) quarantine the candidate: it is excluded from the
    /// incumbent, the training window, and all future proposals, so the
    /// curve stays monotone and an all-fail round simply carries the
    /// incumbent forward.
    ///
    /// # Panics
    /// Panics if no tasks were added, or if a configured checkpoint or
    /// store cannot be written (a supervisor catches the same conditions
    /// as typed faults via [`CampaignStatus::Failed`] instead).
    pub fn run(&mut self) -> TuningResult {
        assert!(!self.tasks.is_empty(), "add at least one task before running");
        self.start();
        loop {
            match self.step() {
                CampaignStatus::Running => {}
                CampaignStatus::Done => return self.result(),
                CampaignStatus::Failed(reason) => panic!("{reason}"),
            }
        }
    }

    /// Opens the campaign: emits the `campaign` span, the
    /// `campaign_begin` record and — for a tuner rebuilt from a
    /// checkpoint — the `resume` record, re-opening any span the parked
    /// phase was inside. Idempotent; [`Tuner::step`] requires it.
    ///
    /// # Panics
    /// Panics if no tasks were added.
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        assert!(!self.tasks.is_empty(), "add at least one task before running");
        self.started = true;
        self.recorder.span_begin("campaign");
        if self.recorder.enabled() {
            let mut begin = Record::new("campaign_begin")
                .u64("tasks", self.tasks.len() as u64)
                .u64("rounds", self.cfg.rounds as u64)
                .u64("seed", self.cfg.seed)
                .u64("space_size", self.cfg.space_size as u64)
                .u64("measure_per_round", self.cfg.measure_per_round as u64)
                .bool("use_psa", self.cfg.use_psa)
                .f64("fault_rate", self.cfg.fault_rate);
            // Simulator campaigns keep the historical record shape (the
            // trace golden pins it byte for byte); other backends announce
            // themselves.
            if B::TAG != "sim" {
                begin = begin.str("backend", B::TAG);
            }
            self.recorder.emit(begin);
            if self.resumed {
                self.recorder
                    .emit(Record::new("resume").u64("next_round", self.phase.round() as u64));
            }
        }
        // A campaign parked mid-round resumes *inside* spans its original
        // incarnation opened; re-open them so every span_end pairs up.
        match &self.phase {
            CampaignPhase::Measuring { .. } => {
                self.recorder.span_begin("round");
                self.recorder.span_begin("measure");
            }
            CampaignPhase::Training { .. } => {
                self.recorder.span_begin("round");
            }
            _ => {}
        }
    }

    /// Advances the campaign by exactly one state-machine transition
    /// (one phase hand-off; in [`CampaignPhase::Measuring`], one single
    /// measurement) and reports whether more work remains. The sequence
    /// of measurements, RNG draws, trace records and simulated-time
    /// charges across steps is identical to the historical monolithic
    /// loop — goldens pinned before the state machine still hold.
    ///
    /// # Panics
    /// Panics if [`Tuner::start`] has not run.
    pub fn step(&mut self) -> CampaignStatus {
        assert!(self.started, "call start() before step()");
        // The in-flight phase owns round state (e.g. the pending
        // programs), so take it by value; `advance` returns its successor.
        let phase = std::mem::replace(&mut self.phase, CampaignPhase::Done);
        self.phase = self.advance(phase);
        match &self.phase {
            CampaignPhase::Done => CampaignStatus::Done,
            CampaignPhase::Failed { reason } => CampaignStatus::Failed(reason.clone()),
            _ => CampaignStatus::Running,
        }
    }

    /// One phase transition of the campaign state machine.
    fn advance(&mut self, phase: CampaignPhase) -> CampaignPhase {
        match phase {
            CampaignPhase::Init => {
                if self.warm_start && self.store.attached() {
                    self.replay_store();
                }
                // Warm-up: measure every task's canonical fallback so the
                // weighted end-to-end latency is finite from the first point
                // (TVM measures a default schedule for the same reason). The
                // fallback is measured *trusted* — a real campaign hand-checks
                // its seed schedule — so every task starts with a finite
                // incumbent even under heavy fault injection.
                self.recorder.span_begin("warmup");
                for ti in 0..self.tasks.len() {
                    let fallback = pruner_sketch::Program::fallback(&self.tasks[ti].workload);
                    let lat = self.measurer.measure_trusted(&fallback);
                    // A store replay may already have recorded this fallback
                    // (then `measure_trusted` was a free cache hit); re-record
                    // only if the task is still without a finite incumbent —
                    // e.g. the store held a quarantine verdict for it, which
                    // the trusted warm-up measurement supersedes.
                    let task = &mut self.tasks[ti];
                    if !task.knows(&fallback) || !task.best_latency().is_finite() {
                        task.record(fallback.clone(), lat);
                    }
                    self.record_to_store(&fallback);
                }
                self.recorder.span_end("warmup");
                self.curve.push(self.curve_point());
                CampaignPhase::Proposing { round: 0 }
            }
            CampaignPhase::Proposing { round } => {
                if round >= self.cfg.rounds {
                    return self.finish();
                }
                self.recorder.span_begin("round");
                let ti = self.pick_task();
                let (progs, funnel) = {
                    let cfg = self.cfg;
                    let params = ProposeParams {
                        space_size: cfg.space_size,
                        pool_size: cfg.target_pool,
                        epsilon: cfg.epsilon,
                        n: cfg.measure_per_round,
                        seed: cfg.seed,
                        round: round as u64,
                        threads: cfg.threads,
                    };
                    let task = &mut self.tasks[ti];
                    task.propose(
                        self.model.as_ref(),
                        self.psa.as_ref(),
                        &mut self.measurer,
                        &self.limits,
                        &params,
                        &mut self.rng,
                        &mut self.arena,
                        self.recorder.as_mut(),
                    )
                };
                // The proposals are materialized programs: a small pool
                // gives its storage back before measuring and training.
                self.arena.release_if_small();
                self.recorder.span_begin("measure");
                CampaignPhase::Measuring {
                    round,
                    task: ti,
                    pending: progs,
                    next: 0,
                    measured: 0,
                    failed: 0,
                    improved: false,
                    funnel,
                }
            }
            CampaignPhase::Measuring {
                round,
                task,
                pending,
                mut next,
                mut measured,
                mut failed,
                mut improved,
                funnel,
            } => {
                if next < pending.len() {
                    let p = &pending[next];
                    let before = self.tasks[task].best_latency();
                    let outcome = self.measurer.measure(p, self.recorder.as_mut());
                    self.record_to_store(p);
                    match outcome {
                        MeasureOutcome::Success { latency_s, .. } => {
                            self.tasks[task].record(p.clone(), latency_s);
                            improved |= latency_s < before;
                            measured += 1;
                        }
                        MeasureOutcome::Failure { .. } => {
                            // No usable timing: never re-propose, never train
                            // on it, keep the incumbent.
                            self.tasks[task].quarantine(p);
                            failed += 1;
                        }
                    }
                    next += 1;
                    CampaignPhase::Measuring {
                        round,
                        task,
                        pending,
                        next,
                        measured,
                        failed,
                        improved,
                        funnel,
                    }
                } else {
                    self.recorder.span_end("measure");
                    self.tasks[task].finish_round(improved);
                    CampaignPhase::Training { round, task, measured, failed, funnel }
                }
            }
            CampaignPhase::Training { round, task, measured, failed, funnel } => {
                // Update the model on the training window.
                let samples = self.training_window();
                if samples.len() >= 2 {
                    match &mut self.mtl {
                        Some(mtl) => {
                            let target = mtl.round_traced(
                                &samples,
                                self.cfg.mtl_epochs,
                                self.cfg.threads,
                                self.recorder.as_mut(),
                            );
                            self.measurer.charge_training(samples.len(), self.cfg.mtl_epochs);
                            self.model = Box::new(target);
                        }
                        None => {
                            fit_recorded(
                                self.model.as_mut(),
                                &samples,
                                self.cfg.train_epochs,
                                self.cfg.threads,
                                self.recorder.as_mut(),
                            );
                            self.measurer.charge_training(samples.len(), self.cfg.train_epochs);
                        }
                    }
                    if self.recorder.enabled() {
                        let epochs = if self.mtl.is_some() {
                            self.cfg.mtl_epochs
                        } else {
                            self.cfg.train_epochs
                        };
                        self.recorder.emit(
                            Record::new("train")
                                .u64("round", round as u64)
                                .u64("samples", samples.len() as u64)
                                .u64("epochs", epochs as u64)
                                .bool("mtl", self.mtl.is_some()),
                        );
                    }
                }

                self.curve.push(self.curve_point());
                if self.recorder.enabled() {
                    // The per-round funnel: how many candidates survived each
                    // draft-then-verify stage, and where the incumbent landed.
                    // Every field is deterministic (identical across thread
                    // counts and traced/untraced runs).
                    let mut record = Record::new("round")
                        .u64("round", round as u64)
                        .u64("task", task as u64)
                        .u64("generated", funnel.generated as u64)
                        .u64("deduped", funnel.deduped as u64);
                    if let Some(survivors) = funnel.psa_survivors {
                        record = record
                            .u64("psa_survivors", survivors as u64)
                            .u64("eps_extras", funnel.eps_extras as u64);
                    }
                    record = record
                        .u64("predicted", funnel.predicted as u64)
                        .u64("proposed", funnel.proposed as u64)
                        .u64("measured", measured)
                        .u64("failed", failed)
                        .f64("best_latency_s", self.weighted_best())
                        .f64("sim_total_s", self.measurer.stats().total_s());
                    self.recorder.emit(record);
                }
                self.recorder.span_end("round");
                CampaignPhase::CheckpointDue { round: round + 1 }
            }
            CampaignPhase::CheckpointDue { round: completed } => {
                if let Some(path) = self.checkpoint_path.clone() {
                    if self.cfg.checkpoint_every > 0 && completed % self.cfg.checkpoint_every == 0
                    {
                        // Flush the store *before* saving the checkpoint:
                        // once a checkpoint lands, the measurements behind
                        // it live only in its cache and are never re-run,
                        // so a store flush that failed after the save would
                        // lose those records forever. Failing before the
                        // save restarts from the previous checkpoint and
                        // re-measures (and re-appends) the interval.
                        if let Err(e) = self.store.flush() {
                            return CampaignPhase::Failed {
                                reason: format!("store write failed: {e}"),
                            };
                        }
                        // A cadence checkpoint parks the campaign at the next
                        // round boundary.
                        let ckpt =
                            self.make_checkpoint(CampaignPhase::Proposing { round: completed });
                        if let Err(e) = ckpt.save_with(&path, self.io_faults.as_ref()) {
                            return CampaignPhase::Failed {
                                reason: format!("checkpoint write failed: {e}"),
                            };
                        }
                        if self.recorder.enabled() {
                            self.recorder
                                .emit(Record::new("checkpoint").u64("round", completed as u64));
                        }
                    }
                }
                if self.cfg.halt_after.is_some_and(|halt| completed >= halt) {
                    return self.finish();
                }
                CampaignPhase::Proposing { round: completed }
            }
            CampaignPhase::Done => CampaignPhase::Done,
            CampaignPhase::Failed { reason } => CampaignPhase::Failed { reason },
        }
    }

    /// Closes the campaign: end-of-campaign records, final store flush,
    /// campaign span end.
    fn finish(&mut self) -> CampaignPhase {
        if self.recorder.enabled() {
            let stats = self.measurer.stats();
            self.recorder.emit(
                Record::new("campaign_end")
                    .u64("trials", stats.trials)
                    .u64("quarantined", stats.quarantined)
                    .f64("best_latency_s", self.weighted_best())
                    .f64("measure_time_s", stats.measure_time_s)
                    .f64("model_time_s", stats.model_time_s)
                    .f64("psa_time_s", stats.psa_time_s)
                    .f64("train_time_s", stats.train_time_s)
                    .f64("evolve_time_s", stats.evolve_time_s)
                    .f64("retry_backoff_s", stats.retry_backoff_s)
                    .f64("fault_time_s", stats.fault_time_s)
                    .f64("sim_total_s", stats.total_s()),
            );
        }
        if self.store.attached() {
            if let Err(e) = self.store.flush() {
                return CampaignPhase::Failed { reason: format!("store write failed: {e}") };
            }
            if self.recorder.enabled() {
                let (records, appended) =
                    self.store.with(|s| (s.len(), s.appended())).unwrap_or((0, 0));
                self.recorder.emit(
                    Record::new("store_flush")
                        .u64("records", records as u64)
                        .u64("appended", appended as u64),
                );
            }
        }
        self.recorder.span_end("campaign");
        CampaignPhase::Done
    }

    /// The campaign outcome assembled from the current state: final after
    /// [`CampaignStatus::Done`], a live snapshot mid-campaign (e.g. when a
    /// supervisor parks the campaign on a deadline).
    pub fn result(&self) -> TuningResult {
        TuningResult {
            best_latency_s: self.weighted_best(),
            per_task_best: self
                .tasks
                .iter()
                .map(|t| (t.workload.clone(), t.best_latency()))
                .collect(),
            best_programs: self.tasks.iter().map(|t| t.best_program().cloned()).collect(),
            stats: self.measurer.stats(),
            curve: self.curve.clone(),
        }
    }

    /// The campaign's current phase.
    pub fn phase(&self) -> &CampaignPhase {
        &self.phase
    }

    /// The simulated-time ledger so far (a supervisor polls this for
    /// measurement-budget deadlines).
    pub fn stats(&self) -> SearchStats {
        self.measurer.stats()
    }

    /// Snapshots the campaign exactly where it stands — including
    /// mid-round — as a [`Checkpoint`]. Resuming the parked checkpoint
    /// continues byte-identically to a campaign that never stopped.
    ///
    /// # Panics
    /// Panics if the cost model does not support snapshotting.
    pub fn park(&self) -> Checkpoint {
        self.make_checkpoint(self.phase.clone())
    }

    /// [`Tuner::park`] straight to disk: saves the checkpoint (through
    /// the optional checkpoint fault injector) and flushes the store so
    /// no measurement record is lost at the park point.
    pub fn park_to(&self, path: &Path) -> std::io::Result<()> {
        // Store first, checkpoint second — same ordering as the cadence
        // path, so no published checkpoint ever references measurements
        // the store has not durably recorded.
        self.store.flush()?;
        self.park().save_with(path, self.io_faults.as_ref())
    }

    /// Installs a seeded fault injector on *checkpoint* writes (cadence
    /// checkpoints and [`Tuner::park_to`]); the chaos harness uses this
    /// to prove a failed checkpoint write surfaces as
    /// [`CampaignStatus::Failed`] without corrupting the previous
    /// checkpoint. Store writes carry their own injector
    /// ([`Store::set_io_faults`]).
    pub fn set_checkpoint_io_faults(&mut self, faults: Option<IoFaults>) {
        self.io_faults = faults;
    }

    /// Replays the store's matching records into this campaign: pre-seeds
    /// the measurement cache (free cache hits — fewer live measurements),
    /// the elite pools and quarantine sets, then pre-trains the cost model
    /// from the logged successes. No simulated search time is charged: the
    /// replayed knowledge was paid for by an earlier campaign. Emits one
    /// `store_replay` trace record summarizing what was used and skipped.
    fn replay_store(&mut self) {
        let spec_fp = self.spec.fingerprint();
        let by_workload: HashMap<String, usize> =
            self.tasks.iter().enumerate().map(|(i, t)| (t.workload.key(), i)).collect();
        let workloads: HashSet<String> = by_workload.keys().cloned().collect();
        // Snapshot the matching records out of the store (under the lock
        // for a shared one — replay must not hold it across model
        // pretraining).
        let Some((records, spec_mismatches, workload_mismatches, file)) =
            self.store.with(|store| {
                let replay = store.replay(B::TAG, &spec_fp, &workloads);
                (
                    replay.records.into_iter().cloned().collect::<Vec<TuningRecord>>(),
                    replay.spec_mismatches,
                    replay.workload_mismatches,
                    store.replay_stats(),
                )
            })
        else {
            return;
        };
        let matched = records.len();
        let mut preseeded = 0u64;
        let mut samples: Vec<Sample> = Vec::new();
        for record in &records {
            let ti = by_workload[&record.workload_fp];
            let key = record.program.dedup_key();
            // A verdict already in the cache (from a checkpoint) wins over
            // the stored one.
            if !self.measurer.preseed(key.clone(), record.outcome.into()) {
                continue;
            }
            preseeded += 1;
            self.store_seeded.insert(key);
            match record.outcome {
                RecordOutcome::Success { latency_s, .. } => {
                    samples.push(self.tasks[ti].record(record.program.clone(), latency_s).clone());
                }
                RecordOutcome::Failure { .. } => {
                    self.tasks[ti].quarantine(&record.program);
                }
            }
        }
        let pretrained = samples.len() >= 2;
        if pretrained {
            // Trained like a round, but under its own names, so a trace
            // tells replayed knowledge apart from this campaign's own
            // training; the samples count once, not once per epoch.
            self.recorder.span_begin("model.pretrain");
            let loss = self.model.fit_batch(&samples, self.cfg.train_epochs, self.cfg.threads);
            self.recorder.counter("model.pretrain_samples", samples.len() as u64);
            self.recorder.gauge("model.pretrain_loss", loss);
            self.recorder.span_end("model.pretrain");
        }
        if self.recorder.enabled() {
            self.recorder.emit(
                Record::new("store_replay")
                    .u64("loaded", file.loaded as u64)
                    .u64("skipped_lines", file.skipped() as u64)
                    .u64("matched", matched as u64)
                    .u64("spec_mismatches", spec_mismatches as u64)
                    .u64("workload_mismatches", workload_mismatches as u64)
                    .u64("preseeded", preseeded)
                    .u64("pretrain_samples", if pretrained { samples.len() as u64 } else { 0 }),
            );
            self.recorder.counter("store.preseeded", preseeded);
        }
    }

    /// Contributes one just-measured program's verdict to the attached
    /// store (no-op without one). Counts a `store.hits` funnel counter
    /// when the verdict was replayed from the store instead of measured
    /// live, and `store.appended` when a genuinely fresh record is added;
    /// the store itself dedupes, so re-encounters are free.
    fn record_to_store(&mut self, prog: &pruner_sketch::Program) {
        if !self.store.attached() {
            return;
        }
        let key = prog.dedup_key();
        if self.store_seeded.contains(&key) {
            self.recorder.counter("store.hits", 1);
            return;
        }
        let Some(outcome) = self.measurer.cached_outcome(prog) else { return };
        let record = TuningRecord::with_backend(&self.spec, B::TAG, prog.clone(), outcome.into());
        if self.store.append(record) {
            self.recorder.counter("store.appended", 1);
        }
    }

    /// Weighted end-to-end latency of the incumbents.
    pub fn weighted_best(&self) -> f64 {
        self.tasks.iter().map(|t| t.weight as f64 * t.best_latency()).sum()
    }

    fn curve_point(&self) -> CurvePoint {
        CurvePoint {
            trials: self.measurer.stats().trials,
            search_time_s: self.measurer.stats().total_s(),
            best_latency_s: self.weighted_best(),
        }
    }

    /// Gradient-style task selection: prefer heavy tasks that are still
    /// improving; never let a task starve forever.
    fn pick_task(&self) -> usize {
        let mut best = 0;
        let mut best_score = f64::NEG_INFINITY;
        for (i, t) in self.tasks.iter().enumerate() {
            let staleness = t.rounds_since_improvement() as f64;
            let score = t.weight as f64 * t.best_latency() * (0.5 + 1.0 / (1.0 + staleness));
            if score > best_score {
                best_score = score;
                best = i;
            }
        }
        best
    }

    /// The most recent `train_window` labeled samples of the tasks'
    /// concatenated measurement logs (task order, then measurement order),
    /// copied from the per-task caches.
    fn training_window(&self) -> Vec<Sample> {
        let total: usize = self.tasks.iter().map(|t| t.labeled_samples().len()).sum();
        let skip = total.saturating_sub(self.cfg.train_window);
        self.tasks.iter().flat_map(|t| t.labeled_samples()).skip(skip).cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_tuner(use_psa: bool, kind: ModelKind) -> Tuner {
        let cfg = TunerConfig { use_psa, ..TunerConfig::quick() };
        let mut t = Tuner::new(GpuSpec::t4(), cfg, ModelSetup::Fresh(kind));
        t.add_task(Workload::matmul(1, 512, 512, 512), 1);
        t
    }

    #[test]
    fn tuning_improves_over_fallback() {
        let mut t = quick_tuner(true, ModelKind::Pacm);
        let result = t.run();
        let first = result.curve.points().first().unwrap().best_latency_s;
        let last = result.best_latency_s;
        assert!(last < first, "tuning must improve: {first} -> {last}");
        assert!(result.stats.trials >= 40);
    }

    #[test]
    fn curve_is_monotone_nonincreasing() {
        let mut t = quick_tuner(true, ModelKind::Ansor);
        let result = t.run();
        let lats: Vec<f64> =
            result.curve.points().iter().map(|p| p.best_latency_s).collect();
        assert!(lats.windows(2).all(|w| w[1] <= w[0] + 1e-12));
    }

    #[test]
    fn deterministic_given_seed() {
        let a = quick_tuner(true, ModelKind::Pacm).run();
        let b = quick_tuner(true, ModelKind::Pacm).run();
        assert_eq!(a.best_latency_s, b.best_latency_s);
        assert_eq!(a.curve, b.curve);
    }

    #[test]
    fn network_tuning_covers_all_tasks() {
        let mut net = Network::new("mini");
        net.add(Workload::matmul(1, 256, 256, 256), 2);
        net.add(Workload::elementwise(pruner_ir::EwKind::Relu, 1 << 18), 1);
        net.add(Workload::reduction(1024, 256), 1);
        let cfg = TunerConfig { rounds: 6, ..TunerConfig::quick() };
        let mut t = Tuner::new(GpuSpec::t4(), cfg, ModelSetup::Fresh(ModelKind::Pacm));
        t.add_network(&net);
        assert_eq!(t.num_tasks(), 3);
        let result = t.run();
        assert_eq!(result.per_task_best.len(), 3);
        assert!(result.per_task_best.iter().all(|(_, l)| l.is_finite()));
    }

    #[test]
    fn mtl_setup_runs() {
        let pre = PacmModel::new(1);
        let cfg = TunerConfig::quick();
        let mut t = Tuner::new(
            GpuSpec::t4(),
            cfg,
            ModelSetup::Mtl { pretrained: pre, momentum: 0.99 },
        );
        t.add_task(Workload::matmul(1, 256, 256, 256), 1);
        let result = t.run();
        assert!(result.best_latency_s.is_finite());
        assert!(result.stats.train_time_s > 0.0);
    }

    #[test]
    fn psa_reduces_model_eval_cost_shape() {
        // With PSA the target pool is charged at the cheap PSA rate; the
        // expensive model only scores the pruned space.
        let with = quick_tuner(true, ModelKind::Pacm).run();
        let without = quick_tuner(false, ModelKind::Pacm).run();
        assert!(with.stats.psa_time_s > 0.0);
        assert_eq!(without.stats.psa_time_s, 0.0);
    }

    #[test]
    fn scheduler_prioritizes_heavy_slow_tasks() {
        // A heavy matmul and a trivial element-wise op: the scheduler must
        // spend most rounds on the matmul.
        let cfg = TunerConfig { rounds: 8, ..TunerConfig::quick() };
        let mut t = Tuner::new(GpuSpec::t4(), cfg, ModelSetup::Fresh(ModelKind::Random));
        t.add_task(Workload::matmul(1, 1024, 1024, 1024), 1);
        t.add_task(Workload::elementwise(pruner_ir::EwKind::Relu, 1 << 10), 1);
        let result = t.run();
        // Big task must have improved beyond its fallback; the tiny task's
        // space is nearly exhausted after the warmup anyway.
        let (_, matmul_best) = &result.per_task_best[0];
        let fallback = pruner_gpu::Simulator::new(GpuSpec::t4())
            .latency(&pruner_sketch::Program::fallback(&Workload::matmul(1, 1024, 1024, 1024)));
        assert!(*matmul_best < fallback, "the heavy task was starved");
    }

    /// The window handed to the model must be exactly what re-featurizing
    /// the whole measurement history (the pre-cache implementation) yields
    /// — same samples, same order — live and after a checkpoint restore,
    /// with the window cutting into the first task's log.
    #[test]
    fn training_window_equals_refeaturized_history() {
        let cfg = TunerConfig { rounds: 6, train_window: 14, ..TunerConfig::quick() };
        let mut t = Tuner::new(GpuSpec::t4(), cfg, ModelSetup::Fresh(ModelKind::Random));
        t.add_task(Workload::matmul(1, 256, 256, 256), 2);
        t.add_task(Workload::reduction(1024, 256), 1);
        t.run();
        let refeaturized = |t: &Tuner| {
            let mut all: Vec<Sample> = t
                .tasks
                .iter()
                .flat_map(|task| {
                    task.measured_log()
                        .iter()
                        .map(|(p, l)| Sample::labeled(p, *l, task.task_id))
                        .collect::<Vec<_>>()
                })
                .collect();
            assert!(all.len() > t.cfg.train_window, "the window must actually cut");
            assert!(t.tasks[1].num_measured() < t.cfg.train_window, "and cut into task 0");
            all.drain(..all.len() - t.cfg.train_window);
            serde_json::to_string(&all).unwrap()
        };
        let window = |t: &Tuner| serde_json::to_string(&t.training_window()).unwrap();
        assert_eq!(window(&t), refeaturized(&t));
        let restored = Tuner::from_checkpoint(t.park());
        assert_eq!(window(&restored), window(&t), "restore must rebuild the same window");
    }

    #[test]
    #[should_panic(expected = "at least one task")]
    fn run_without_tasks_panics() {
        Tuner::new(GpuSpec::t4(), TunerConfig::quick(), ModelSetup::Fresh(ModelKind::Random))
            .run();
    }

    #[test]
    fn fault_injection_terminates_and_stays_monotone() {
        let cfg = TunerConfig { fault_rate: 0.25, ..TunerConfig::quick() };
        let mut t = Tuner::new(GpuSpec::t4(), cfg, ModelSetup::Fresh(ModelKind::Pacm));
        t.add_task(Workload::matmul(1, 512, 512, 512), 1);
        let result = t.run();
        let lats: Vec<f64> =
            result.curve.points().iter().map(|p| p.best_latency_s).collect();
        assert!(lats.windows(2).all(|w| w[1] <= w[0] + 1e-12), "curve must stay monotone");
        assert!(result.best_latency_s.is_finite(), "warm-up keeps the incumbent finite");
        assert!(result.stats.failures > 0, "rate 0.25 must inject failures");
        assert!(result.stats.fault_time_s > 0.0, "failures must cost simulated time");
    }

    #[test]
    fn zero_fault_rate_is_identical_to_fault_unaware_campaign() {
        let base = quick_tuner(true, ModelKind::Pacm).run();
        let cfg = TunerConfig { fault_rate: 0.0, ..TunerConfig::quick() };
        let mut t = Tuner::new(GpuSpec::t4(), cfg, ModelSetup::Fresh(ModelKind::Pacm));
        t.add_task(Workload::matmul(1, 512, 512, 512), 1);
        let zero = t.run();
        assert_eq!(base.curve, zero.curve);
        assert_eq!(base.stats, zero.stats);
    }

    #[test]
    fn traced_campaign_is_bit_identical_and_funnel_covers_every_round() {
        let plain = quick_tuner(true, ModelKind::Pacm).run();
        let trace = pruner_trace::TraceHandle::new();
        let mut t = quick_tuner(true, ModelKind::Pacm);
        t.set_recorder(Box::new(trace.clone()));
        let traced = t.run();
        assert_eq!(
            serde_json::to_string(&plain).unwrap(),
            serde_json::to_string(&traced).unwrap(),
            "the recorder must only observe, never perturb"
        );
        let records = trace.records();
        let rounds: Vec<&pruner_trace::Record> =
            records.iter().filter(|r| r.kind() == "round").collect();
        assert_eq!(
            rounds.len(),
            traced.curve.points().len() - 1,
            "one funnel record per tuning round (warm-up adds the extra curve point)"
        );
        for (i, r) in rounds.iter().enumerate() {
            let get = |k: &str| r.get(k).and_then(pruner_trace::Value::as_u64).unwrap();
            assert_eq!(get("round"), i as u64);
            assert!(get("generated") >= get("deduped"));
            assert!(get("psa_survivors") <= get("deduped"), "PSA campaign records survivors");
            assert_eq!(get("predicted"), get("psa_survivors") + get("eps_extras"));
            assert_eq!(get("measured") + get("failed"), get("proposed"));
        }
        let last = rounds.last().unwrap();
        assert_eq!(
            last.get("best_latency_s").and_then(pruner_trace::Value::as_f64),
            Some(traced.best_latency_s),
            "the final funnel record carries the campaign's best latency"
        );
        assert_eq!(records.iter().filter(|r| r.kind() == "campaign_begin").count(), 1);
        assert_eq!(records.iter().filter(|r| r.kind() == "campaign_end").count(), 1);
        assert_eq!(records.iter().filter(|r| r.kind() == "train").count(), rounds.len());
        let end = records.iter().find(|r| r.kind() == "campaign_end").unwrap();
        assert_eq!(
            end.get("sim_total_s").and_then(pruner_trace::Value::as_f64),
            Some(traced.stats.total_s()),
            "the campaign_end ledger must reconcile with SearchStats"
        );
        // Wall timings exist only because spans measured them.
        assert!(traced.stats.pipeline_wall_s() > 0.0);
        assert_eq!(plain.stats.pipeline_wall_s(), 0.0);
    }

    fn store_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("pruner-tuner-store-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn record_only_store_is_bit_identical_and_captures_every_verdict() {
        let dir = store_dir("recordonly");
        let path = dir.join("records.jsonl");
        let base = quick_tuner(true, ModelKind::Pacm).run();

        let mut t = quick_tuner(true, ModelKind::Pacm);
        t.set_store(Store::open(&path).unwrap(), false);
        let recorded = t.run();
        assert_eq!(
            serde_json::to_string(&base).unwrap(),
            serde_json::to_string(&recorded).unwrap(),
            "a record-only store must only observe the campaign"
        );
        let store = Store::open(&path).unwrap();
        assert_eq!(
            store.len() as u64,
            recorded.stats.trials,
            "fault-free: one record per live measurement (warm-up included)"
        );
        assert_eq!(store.replay_stats().skipped(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A small multi-task campaign for warm-start tests: every task's
    /// fallback lands in the store, so a warm rerun saves one warm-up
    /// trial per task.
    fn multi_task_tuner() -> Tuner {
        let mut t =
            Tuner::new(GpuSpec::t4(), TunerConfig::quick(), ModelSetup::Fresh(ModelKind::Pacm));
        t.add_task(Workload::matmul(1, 512, 512, 512), 2);
        t.add_task(Workload::reduction(1024, 256), 1);
        t.add_task(Workload::elementwise(pruner_ir::EwKind::Relu, 1 << 18), 1);
        t
    }

    #[test]
    fn warm_start_measures_strictly_less_and_is_deterministic() {
        let dir = store_dir("warm");
        let first_path = dir.join("records.jsonl");
        let mut first = multi_task_tuner();
        first.set_store(Store::open(&first_path).unwrap(), false);
        let cold = first.run();

        // Re-running from the same store state twice must be
        // byte-identical, so replay from two copies of the same file.
        let copy_a = dir.join("a.jsonl");
        let copy_b = dir.join("b.jsonl");
        std::fs::copy(&first_path, &copy_a).unwrap();
        std::fs::copy(&first_path, &copy_b).unwrap();

        let mut wa = multi_task_tuner();
        wa.set_store(Store::open(&copy_a).unwrap(), true);
        let warm_a = wa.run();
        let mut wb = multi_task_tuner();
        wb.set_store(Store::open(&copy_b).unwrap(), true);
        let warm_b = wb.run();

        assert_eq!(
            serde_json::to_string(&warm_a).unwrap(),
            serde_json::to_string(&warm_b).unwrap(),
            "same store state must replay to a byte-identical campaign"
        );
        assert!(
            warm_a.stats.trials < cold.stats.trials,
            "warm start must measure strictly less: {} vs {}",
            warm_a.stats.trials,
            cold.stats.trials
        );
        assert!(
            warm_a.best_latency_s <= cold.best_latency_s,
            "replayed elites mean the warm campaign starts from the cold one's best"
        );
        // The warm campaign's fresh discoveries were appended to its copy.
        assert!(Store::open(&copy_a).unwrap().len() > Store::open(&first_path).unwrap().len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stored_quarantines_replay_without_remeasuring() {
        let dir = store_dir("quarantine");
        let path = dir.join("records.jsonl");
        // Fail-fast retries at a high fault rate: every failed attempt
        // quarantines its candidate, so the store reliably collects
        // failure verdicts.
        let cfg =
            TunerConfig { fault_rate: 0.5, max_retries: 0, ..TunerConfig::quick() };
        let build = |cfg: TunerConfig| {
            let mut t = Tuner::new(GpuSpec::t4(), cfg, ModelSetup::Fresh(ModelKind::Pacm));
            t.add_task(Workload::matmul(1, 512, 512, 512), 1);
            t.add_task(Workload::reduction(1024, 256), 1);
            t
        };
        let mut first = build(cfg);
        first.set_store(Store::open(&path).unwrap(), false);
        let cold = first.run();
        assert!(cold.stats.quarantined > 0, "rate 0.5 fail-fast must quarantine something");
        let store = Store::open(&path).unwrap();
        let failures =
            store.records().iter().filter(|r| !r.outcome.is_success()).count() as u64;
        assert_eq!(failures, cold.stats.quarantined, "quarantine verdicts are persisted too");

        let trace = pruner_trace::TraceHandle::new();
        let mut warm = build(cfg);
        warm.set_store(Store::open(&path).unwrap(), true);
        warm.set_recorder(Box::new(trace.clone()));
        let warmed = warm.run();
        assert!(warmed.stats.trials < cold.stats.trials);
        let records = trace.records();
        let replayed = records.iter().find(|r| r.kind() == "store_replay").unwrap();
        let get = |k: &str| replayed.get(k).and_then(pruner_trace::Value::as_u64).unwrap();
        assert_eq!(get("loaded"), store.len() as u64);
        assert_eq!(get("preseeded"), get("matched"));
        assert!(get("pretrain_samples") >= 2, "logged successes pre-train the model");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_from_checkpoint_is_byte_identical() {
        let cfg = TunerConfig {
            rounds: 6,
            fault_rate: 0.15,
            checkpoint_every: 3,
            ..TunerConfig::quick()
        };
        let build = |cfg: TunerConfig| {
            let mut t = Tuner::new(GpuSpec::t4(), cfg, ModelSetup::Fresh(ModelKind::Pacm));
            t.add_task(Workload::matmul(1, 512, 512, 512), 1);
            t
        };
        let full = build(cfg).run();

        let dir = std::env::temp_dir().join(format!("pruner-resume-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");
        let mut halted =
            build(TunerConfig { halt_after: Some(3), ..cfg });
        halted.set_checkpoint_path(&path);
        let partial = halted.run();
        assert!(partial.curve.points().len() < full.curve.points().len());

        let resumed = Tuner::<Simulator>::resume(&path).unwrap().run();
        assert_eq!(
            serde_json::to_string(&full).unwrap(),
            serde_json::to_string(&resumed).unwrap(),
            "resumed campaign must be byte-identical to the uninterrupted one"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_with_mtl_is_byte_identical() {
        let cfg = TunerConfig { rounds: 4, checkpoint_every: 2, ..TunerConfig::quick() };
        let build = |cfg: TunerConfig| {
            let mut t = Tuner::new(
                GpuSpec::t4(),
                cfg,
                ModelSetup::Mtl { pretrained: PacmModel::new(1), momentum: 0.99 },
            );
            t.add_task(Workload::matmul(1, 256, 256, 256), 1);
            t
        };
        let full = build(cfg).run();
        let dir = std::env::temp_dir().join(format!("pruner-mtl-resume-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");
        let mut halted = build(TunerConfig { halt_after: Some(2), ..cfg });
        halted.set_checkpoint_path(&path);
        halted.run();
        let resumed = Tuner::<Simulator>::resume(&path).unwrap().run();
        assert_eq!(
            serde_json::to_string(&full).unwrap(),
            serde_json::to_string(&resumed).unwrap(),
            "MTL state (Siamese + Adam step counter) must survive the checkpoint"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The masked trace lines of `trace` that carry one of `names`, or
    /// whose record kind is `store_replay`, in trace order.
    fn masked_lines(trace: &pruner_trace::TraceHandle, names: &[&str]) -> String {
        pruner_trace::mask_host_fields(&trace.to_jsonl())
            .lines()
            .filter(|l| {
                l.contains("\"type\":\"store_replay\"")
                    || names.iter().any(|n| l.contains(&format!("\"name\":\"{n}\"")))
            })
            .map(|l| format!("{l}\n"))
            .collect()
    }

    /// Model-update records the trace golden never reaches, pinned byte
    /// for byte: an MTL campaign's per-round `model.fit_loss` gauge, then
    /// its `model.fit` span nested in the `mtl.round` span, and the
    /// `model.fit_samples` counter; a warm start's `model.pretrain` span,
    /// `model.pretrain_loss` gauge and `model.pretrain_samples` counter,
    /// which counts the replayed samples once, not once per epoch.
    #[test]
    fn mtl_and_warm_start_model_records_are_pinned() {
        let cfg = TunerConfig { rounds: 2, ..TunerConfig::quick() };
        let trace = pruner_trace::TraceHandle::new();
        let mut mtl = Tuner::new(
            GpuSpec::t4(),
            cfg,
            ModelSetup::Mtl { pretrained: PacmModel::new(1), momentum: 0.99 },
        );
        mtl.add_task(Workload::matmul(1, 256, 256, 256), 1);
        mtl.set_recorder(Box::new(trace.clone()));
        mtl.run();
        let fit = ["model.fit_loss", "model.fit", "mtl.round", "model.fit_samples"];
        assert_eq!(masked_lines(&trace, &fit), MTL_MODEL_RECORDS);

        let dir = store_dir("pinned-pretrain");
        let path = dir.join("records.jsonl");
        let build = || {
            let mut t = Tuner::new(GpuSpec::t4(), cfg, ModelSetup::Fresh(ModelKind::Pacm));
            t.add_task(Workload::matmul(1, 256, 256, 256), 1);
            t
        };
        let mut cold = build();
        cold.set_store(Store::open(&path).unwrap(), false);
        cold.run();
        let trace = pruner_trace::TraceHandle::new();
        let mut warm = build();
        warm.set_store(Store::open(&path).unwrap(), true);
        warm.set_recorder(Box::new(trace.clone()));
        warm.run();
        let pretrain = ["model.pretrain", "model.pretrain_loss", "model.pretrain_samples"];
        assert_eq!(masked_lines(&trace, &pretrain), WARM_START_MODEL_RECORDS);
        std::fs::remove_dir_all(&dir).ok();
    }

    const MTL_MODEL_RECORDS: &str = "\
{\"v\":1,\"type\":\"gauge\",\"name\":\"model.fit_loss\",\"value\":0.0677122600376606}
{\"v\":1,\"type\":\"span\",\"name\":\"model.fit\",\"depth\":3,\"host_s\":\"***\"}
{\"v\":1,\"type\":\"span\",\"name\":\"mtl.round\",\"depth\":2,\"host_s\":\"***\"}
{\"v\":1,\"type\":\"gauge\",\"name\":\"model.fit_loss\",\"value\":0.14180335743973652}
{\"v\":1,\"type\":\"span\",\"name\":\"model.fit\",\"depth\":3,\"host_s\":\"***\"}
{\"v\":1,\"type\":\"span\",\"name\":\"mtl.round\",\"depth\":2,\"host_s\":\"***\"}
{\"v\":1,\"type\":\"counter\",\"name\":\"model.fit_samples\",\"value\":42}
";

    const WARM_START_MODEL_RECORDS: &str = "\
{\"v\":1,\"type\":\"gauge\",\"name\":\"model.pretrain_loss\",\"value\":0.20300960116502312}
{\"v\":1,\"type\":\"span\",\"name\":\"model.pretrain\",\"depth\":1,\"host_s\":\"***\"}
{\"v\":1,\"type\":\"store_replay\",\"loaded\":9,\"skipped_lines\":0,\"matched\":9,\
\"spec_mismatches\":0,\"workload_mismatches\":0,\"preseeded\":9,\"pretrain_samples\":9}
{\"v\":1,\"type\":\"counter\",\"name\":\"model.pretrain_samples\",\"value\":9}
";
}
