//! **Pruner** — an efficient tensor-program tuner with dual awareness,
//! reproduced as a self-contained Rust stack.
//!
//! Pruner (ASPLOS'25; earlier arXiv title *"A Draft-then-Verify Exploration
//! Mechanism to Accelerate Tensor Program Tuning"*) accelerates
//! Ansor-style schedule search with three components, all implemented
//! here:
//!
//! * **PSA** ([`psa`]) — a hardware-aware static analyzer that *drafts*:
//!   it prices every candidate schedule with four penalty formulas and
//!   prunes the random sample space to a small high-quality target space.
//! * **PaCM** ([`cost`]) — a pattern-aware learned cost model that
//!   *verifies*: statement features plus a self-attention encoding of the
//!   multi-tiling data-flow, trained with LambdaRank.
//! * **MTL** ([`tuner::Mtl`]) — momentum transfer learning, which ports a
//!   cross-platform pre-trained PaCM to a new GPU without training
//!   collapse.
//!
//! Because no GPU or TVM is available to a pure-Rust reproduction, the
//! stack bottoms out in an analytical GPU simulator ([`gpu`]) that plays
//! the role of the hardware: deterministic, platform-parameterized
//! (K80/T4/TITAN V/A100/Orin) and rich enough that the learned models have
//! real signal to find. See `DESIGN.md` for the substitution argument and
//! `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! # Quickstart
//!
//! ```no_run
//! use pruner::{Pruner, gpu::GpuSpec, ir::Workload};
//!
//! // Tune one GEMM for 200 trials on a simulated T4.
//! let result = Pruner::builder(GpuSpec::t4())
//!     .workload(Workload::matmul(1, 512, 512, 512))
//!     .trials(200)
//!     .build()
//!     .tune();
//! println!("best latency: {:.3} ms", result.best_latency_s * 1e3);
//! ```
//!
//! End-to-end networks, offline pre-training, cross-platform transfer and
//! every paper experiment are exercised by the `examples/` directory and
//! the `pruner-bench` harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod model_io;

pub use pruner_cost as cost;
pub use pruner_dataset as dataset;
pub use pruner_durable as durable;
pub use pruner_exec as exec;
pub use pruner_features as features;
pub use pruner_gpu as gpu;
pub use pruner_ir as ir;
pub use pruner_nn as nn;
pub use pruner_psa as psa;
pub use pruner_serve as serve;
pub use pruner_sketch as sketch;
pub use pruner_store as store;
pub use pruner_trace as trace;
pub use pruner_tuner as tuner;

pub use pruner_tuner::fleet::{Fleet, FleetConfig, FleetResult, FleetRun, FleetStatus};

use pruner_cost::{CostModel, ModelKind, PacmModel};
use pruner_gpu::{Backend, GpuSpec, Simulator};
use pruner_ir::{Network, Workload};
use pruner_psa::PsaConfig;
use pruner_tuner::{ModelSetup, Tuner, TunerConfig, TuningResult};

/// High-level entry point: configure a tuning campaign fluently.
///
/// Wraps [`tuner::Tuner`] with the paper's defaults (PSA pruning on,
/// PaCM trained online, 2,000 trials). Campaigns measure through the
/// analytical simulator by default;
/// [`build_with(CpuExec::new(..))`](PrunerBuilder::build_with) swaps in
/// the executable CPU backend ([`exec::CpuExec`]) with no other change to
/// the pipeline, and `Tuner::<CpuExec>::resume` restores its checkpoints.
pub struct Pruner<B: Backend = Simulator> {
    tuner: Tuner<B>,
}

impl Pruner {
    /// Starts a builder for the given platform.
    pub fn builder(spec: GpuSpec) -> PrunerBuilder {
        PrunerBuilder {
            spec,
            config: TunerConfig::default(),
            psa_config: PsaConfig::default(),
            setup: Setup::Fresh(ModelKind::Pacm),
            tasks: Vec::new(),
            checkpoint: None,
            recorder: None,
            store: None,
            warm_start: true,
        }
    }

    /// Restores a simulator-backed campaign from a checkpoint file written
    /// during a previous (interrupted) run. The resumed campaign continues
    /// from the first unfinished round and produces a byte-identical result
    /// to the uninterrupted run. Other backends resume through
    /// [`Tuner::resume`](tuner::Tuner::resume).
    pub fn resume<P: AsRef<std::path::Path>>(path: P) -> std::io::Result<Pruner> {
        Ok(Pruner { tuner: Tuner::resume(path)? })
    }
}

impl<B: Backend> Pruner<B> {
    /// Runs the campaign.
    pub fn tune(mut self) -> TuningResult {
        self.tuner.run()
    }

    /// Unwraps the underlying tuner — what a
    /// [`Supervisor`](tuner::Supervisor) factory hands to its worker
    /// thread to drive the campaign step by step.
    pub fn into_tuner(self) -> Tuner<B> {
        self.tuner
    }
}

#[allow(clippy::large_enum_variant)] // built once per campaign
enum Setup {
    Fresh(ModelKind),
    Offline(Box<dyn CostModel>),
    Mtl { pretrained: PacmModel, momentum: f32 },
}

/// Fluent configuration for [`Pruner`].
pub struct PrunerBuilder {
    spec: GpuSpec,
    config: TunerConfig,
    psa_config: PsaConfig,
    setup: Setup,
    tasks: Vec<(Workload, u64)>,
    checkpoint: Option<std::path::PathBuf>,
    recorder: Option<Box<dyn pruner_trace::Recorder>>,
    store: Option<std::path::PathBuf>,
    warm_start: bool,
}

impl PrunerBuilder {
    /// Adds a single operator task.
    pub fn workload(mut self, wl: Workload) -> Self {
        self.tasks.push((wl, 1));
        self
    }

    /// Adds every subgraph of a network.
    pub fn network(mut self, net: &Network) -> Self {
        for sg in net.subgraphs() {
            self.tasks.push((sg.workload.clone(), sg.weight));
        }
        self
    }

    /// Sets the measurement budget (trials = rounds × measurements/round).
    ///
    /// # Panics
    /// Panics if `trials` is smaller than one round's measurements.
    pub fn trials(mut self, trials: usize) -> Self {
        assert!(
            trials >= self.config.measure_per_round,
            "need at least {} trials",
            self.config.measure_per_round
        );
        self.config.rounds = trials / self.config.measure_per_round;
        self
    }

    /// Overrides the full tuner configuration.
    pub fn config(mut self, config: TunerConfig) -> Self {
        self.config = config;
        self
    }

    /// Disables PSA pruning (the `w/o PSA` ablation).
    pub fn without_psa(mut self) -> Self {
        self.config.use_psa = false;
        self
    }

    /// Uses PSA with explicit penalty toggles (Table 4 ablations).
    pub fn psa_config(mut self, cfg: PsaConfig) -> Self {
        self.psa_config = cfg;
        self
    }

    /// Uses a specific online cost model instead of PaCM.
    pub fn model(mut self, kind: ModelKind) -> Self {
        self.setup = Setup::Fresh(kind);
        self
    }

    /// Starts from a pre-trained model, fine-tuned online without MTL
    /// (offline mode, as for the TensetMLP/TLP comparisons).
    pub fn offline_model(mut self, model: Box<dyn CostModel>) -> Self {
        self.setup = Setup::Offline(model);
        self
    }

    /// Enables Momentum Transfer Learning around a pre-trained PaCM with
    /// the paper's momentum (0.99).
    pub fn with_mtl(mut self, pretrained: PacmModel) -> Self {
        self.setup = Setup::Mtl { pretrained, momentum: 0.99 };
        self
    }

    /// Enables MTL with an explicit momentum (ablation).
    pub fn with_mtl_momentum(mut self, pretrained: PacmModel, momentum: f32) -> Self {
        self.setup = Setup::Mtl { pretrained, momentum };
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the worker-thread count of the candidate-evaluation pipeline.
    ///
    /// `1` runs the pipeline serially; results are bit-identical at any
    /// value (the default is the host's available parallelism).
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads.max(1);
        self
    }

    /// Injects deterministic hardware failures into the measurement path
    /// at the given composite rate (0 disables injection; the zero-fault
    /// campaign is bit-identical to a fault-unaware build).
    pub fn fault_rate(mut self, rate: f64) -> Self {
        self.config.fault_rate = rate;
        self
    }

    /// Sets the retry budget for failed measurement attempts.
    pub fn max_retries(mut self, retries: u32) -> Self {
        self.config.max_retries = retries;
        self
    }

    /// Enables crash-safe checkpointing to the given file (written
    /// atomically every [`TunerConfig::checkpoint_every`] rounds).
    pub fn checkpoint<P: Into<std::path::PathBuf>>(mut self, path: P) -> Self {
        self.checkpoint = Some(path.into());
        self
    }

    /// Sets the checkpoint cadence, in rounds (0 disables periodic
    /// writes).
    pub fn checkpoint_every(mut self, rounds: usize) -> Self {
        self.config.checkpoint_every = rounds;
        self
    }

    /// Stops the campaign after this many rounds — the "kill" half of
    /// kill-and-resume testing.
    pub fn halt_after(mut self, rounds: usize) -> Self {
        self.config.halt_after = Some(rounds);
        self
    }

    /// Attaches a persistent tuning-record store (append-only JSONL,
    /// see `docs/STORE_FORMAT.md`). Every measurement verdict of the
    /// campaign — successes and quarantined failures alike — is appended
    /// to the file, and with warm start enabled (the default) records
    /// from previous campaigns on the same platform pre-seed the
    /// measurement cache and pre-train the cost model before round 0.
    /// A missing file is created on the first flush.
    pub fn store<P: Into<std::path::PathBuf>>(mut self, path: P) -> Self {
        self.store = Some(path.into());
        self
    }

    /// Toggles cross-campaign warm start for an attached [`store`]
    /// (default `true`). With warm start off the store is record-only:
    /// the campaign is bit-identical to one without a store.
    ///
    /// [`store`]: PrunerBuilder::store
    pub fn warm_start(mut self, enabled: bool) -> Self {
        self.warm_start = enabled;
        self
    }

    /// Installs a trace [`Recorder`](pruner_trace::Recorder) on the
    /// campaign — typically a cloned [`trace::TraceHandle`], whose other
    /// clone the caller keeps to render the JSONL trace or the
    /// end-of-campaign report afterwards. The recorder only observes: a
    /// traced campaign is bit-identical to an untraced one.
    pub fn recorder(mut self, rec: Box<dyn pruner_trace::Recorder>) -> Self {
        self.recorder = Some(rec);
        self
    }

    /// Builds a simulator-backed tuner.
    ///
    /// # Panics
    /// Panics if no workload or network was added, or if an attached
    /// store file exists but cannot be read.
    pub fn build(self) -> Pruner {
        let backend = Simulator::new(self.spec.clone());
        self.build_with(backend)
    }

    /// Builds a tuner measuring through `backend` — e.g.
    /// `build_with(CpuExec::new(spec))`, where candidate programs are
    /// actually run (see [`exec::CpuExec`]) and latency is wall-clock
    /// time, while sampling, PSA pruning, the cost model and the
    /// store/checkpoint plumbing stay exactly as in [`build`].
    ///
    /// [`build`]: PrunerBuilder::build
    ///
    /// # Panics
    /// Same conditions as [`build`](PrunerBuilder::build), and if
    /// `backend` measures a different platform than the builder's.
    pub fn build_with<B: Backend>(self, backend: B) -> Pruner<B> {
        assert!(!self.tasks.is_empty(), "add a workload or network before building");
        assert_eq!(backend.spec(), &self.spec, "the backend must measure the builder's platform");
        let setup = match self.setup {
            Setup::Fresh(kind) => ModelSetup::Fresh(kind),
            Setup::Offline(model) => ModelSetup::Offline(model),
            Setup::Mtl { pretrained, momentum } => ModelSetup::Mtl { pretrained, momentum },
        };
        let mut tuner =
            Tuner::with_backend(self.spec, self.config, setup, self.psa_config, backend);
        for (wl, weight) in self.tasks {
            tuner.add_task(wl, weight);
        }
        if let Some(path) = self.checkpoint {
            tuner.set_checkpoint_path(path);
        }
        if let Some(rec) = self.recorder {
            tuner.set_recorder(rec);
        }
        if let Some(path) = self.store {
            let store = store::Store::open(&path)
                .unwrap_or_else(|e| panic!("cannot open store {}: {e}", path.display()));
            tuner.set_store(store, self.warm_start);
        }
        Pruner { tuner }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pruner_exec::CpuExec;

    #[test]
    fn builder_quick_campaign_improves() {
        let result = Pruner::builder(GpuSpec::t4())
            .workload(Workload::matmul(1, 256, 256, 256))
            .config(TunerConfig::quick())
            .seed(1)
            .build()
            .tune();
        let first = result.curve.points().first().unwrap().best_latency_s;
        assert!(result.best_latency_s <= first);
    }

    #[test]
    fn builder_supports_networks() {
        let net = ir::zoo::bert_tiny(1, 64);
        let mut cfg = TunerConfig::quick();
        cfg.rounds = 4;
        let p = Pruner::builder(GpuSpec::t4()).network(&net).config(cfg).build();
        let result = p.tune();
        assert!(result.per_task_best.len() > 5);
    }

    #[test]
    #[should_panic(expected = "add a workload")]
    fn empty_builder_panics() {
        let _ = Pruner::builder(GpuSpec::t4()).build();
    }

    #[test]
    fn threads_is_clamped_to_one() {
        let p = Pruner::builder(GpuSpec::t4())
            .workload(Workload::matmul(1, 64, 64, 64))
            .threads(0);
        assert_eq!(p.config.threads, 1);
    }

    #[test]
    fn campaign_is_identical_across_thread_counts() {
        let run = |threads: usize| {
            Pruner::builder(GpuSpec::t4())
                .workload(Workload::matmul(1, 256, 256, 256))
                .config(TunerConfig { rounds: 3, ..TunerConfig::quick() })
                .seed(5)
                .threads(threads)
                .build()
                .tune()
        };
        let serial = run(1);
        let parallel = run(4);
        assert_eq!(serial.best_latency_s, parallel.best_latency_s);
        assert_eq!(serial.curve, parallel.curve);
        assert_eq!(serial.stats, parallel.stats);
    }

    #[test]
    fn builder_store_records_and_warm_starts() {
        let dir = std::env::temp_dir().join(format!("pruner-facade-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("records.jsonl");
        let _ = std::fs::remove_file(&path);
        let run = |warm: bool| {
            Pruner::builder(GpuSpec::t4())
                .workload(Workload::matmul(1, 256, 256, 256))
                .config(TunerConfig::quick())
                .seed(3)
                .store(&path)
                .warm_start(warm)
                .build()
                .tune()
        };
        let cold = run(false);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), cold.stats.trials as usize);
        let warm = run(true);
        assert!(warm.stats.trials <= cold.stats.trials);
        assert!(warm.best_latency_s <= cold.best_latency_s);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn build_cpu_runs_a_tiny_campaign() {
        let cfg = exec::CpuExecConfig {
            threads: 2,
            timer: exec::TimerConfig {
                samples: 2,
                min_window_s: 1e-5,
                ..exec::TimerConfig::default()
            },
        };
        let result = Pruner::builder(GpuSpec::t4())
            .workload(Workload::matmul(1, 48, 48, 48))
            .config(TunerConfig { rounds: 2, ..TunerConfig::quick() })
            .seed(7)
            .build_with(CpuExec::with_config(GpuSpec::t4(), cfg))
            .tune();
        assert!(result.best_latency_s > 0.0, "wall-clock latency must be positive");
        // 2 rounds x 4 measures, plus the per-task warm-up measurement.
        assert!(
            result.stats.trials >= 1 && result.stats.trials <= 9,
            "trial count out of range: {}",
            result.stats.trials
        );
    }

    #[test]
    fn trials_sets_rounds() {
        let p = Pruner::builder(GpuSpec::t4())
            .workload(Workload::matmul(1, 64, 64, 64))
            .config(TunerConfig::quick())
            .trials(40);
        assert_eq!(p.config.rounds, 10);
    }
}
