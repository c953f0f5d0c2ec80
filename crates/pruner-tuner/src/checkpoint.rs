//! Crash-safe campaign checkpointing.
//!
//! A [`Checkpoint`] captures *everything* a campaign needs to continue as
//! if it had never stopped: the round counter, every task's measurement
//! log and quarantine set, the measurement cache and simulated-time
//! ledger, the cost model's weights (including optimizer moments and the
//! Adam step counter), the MTL Siamese state, the fault model, and the
//! word offset of the campaign RNG. Resuming from a checkpoint therefore
//! produces a byte-identical [`crate::TuningResult`] to the uninterrupted
//! run — checked by the `checkpoint` integration suite.
//!
//! Writes are atomic *and durable*: the JSON goes through
//! [`pruner_durable::write_atomic_durable`] — write to a `.tmp` sibling,
//! fsync it, rename over the destination, fsync the parent directory —
//! so a crash at any point leaves either the previous checkpoint or the
//! new one, never a torn file, and the rename itself survives a power
//! cut. Loads go through [`pruner_durable::open_versioned`], which checks
//! `version` before the layout: a checkpoint from a newer build is a
//! version mismatch, whatever else changed in it.

use crate::curve::TuningCurve;
use crate::measure::{MeasureOutcome, RetryPolicy, SearchStats, TimeModel};
use crate::mtl::Mtl;
use crate::state::CampaignPhase;
use pruner_cost::ModelSnapshot;
use pruner_durable::{open_versioned, write_atomic_durable, DecodeError, IoFaults};
use pruner_gpu::GpuSpec;
use pruner_ir::Workload;
use pruner_psa::PsaConfig;
use pruner_sketch::Program;
use serde::{Deserialize, Serialize};
use std::fs;
use std::io;
use std::path::Path;

use crate::tuner::TunerConfig;

/// Serialized state of one [`crate::TaskTuner`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TaskCheckpoint {
    /// The workload being tuned.
    pub workload: Workload,
    /// Stable task identifier.
    pub task_id: usize,
    /// Occurrence weight in the parent network.
    pub weight: u64,
    /// Measurement log in measurement order (the incumbent is re-derived
    /// by replaying it).
    pub measured: Vec<(Program, f64)>,
    /// Quarantined program keys, sorted.
    pub quarantined: Vec<String>,
    /// Schedule fingerprints aligned positionally with `quarantined`.
    /// Absent in checkpoints written before the fingerprint dedup path;
    /// those entries restore with a `0` sentinel (they still block
    /// re-recording by key, but cannot join the fingerprint dedup set).
    #[serde(default)]
    pub quarantined_fps: Vec<u64>,
    /// Scheduler staleness counter.
    pub rounds_since_improvement: usize,
}

/// Serialized state of the [`crate::Measurer`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MeasurerCheckpoint {
    /// Time-cost constants.
    pub time: TimeModel,
    /// Retry/backoff policy.
    pub policy: RetryPolicy,
    /// Tag of the backend that wrote this checkpoint
    /// ([`pruner_gpu::Backend::TAG`]); a resume must use the same backend.
    pub backend_tag: String,
    /// The backend's own serialized configuration
    /// ([`pruner_gpu::Backend::checkpoint_config`]) — for the simulator,
    /// its model constants and fault-injection setup.
    pub backend_cfg: String,
    /// Measurement cache in sorted-key order.
    pub cache: Vec<(String, MeasureOutcome)>,
    /// The simulated-time ledger.
    pub stats: SearchStats,
    /// Measurement attempts issued so far (the next attempt's nonce).
    pub attempts: u64,
}

/// A complete, resumable snapshot of a tuning campaign.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Format version (bumped on incompatible layout changes).
    pub version: u32,
    /// Campaign parameters.
    pub config: TunerConfig,
    /// The platform being tuned.
    pub spec: GpuSpec,
    /// PSA penalty toggles (used only when `config.use_psa`).
    pub psa_cfg: PsaConfig,
    /// The next round to execute (rounds `0..next_round` are complete).
    /// Derived from `phase` at save time; kept as its own field for
    /// human inspection of checkpoint files.
    pub next_round: usize,
    /// The exact campaign phase captured — including mid-round phases
    /// like [`CampaignPhase::Measuring`], which is what lets a park at
    /// *any* step resume byte-identically.
    pub phase: CampaignPhase,
    /// Best-so-far trajectory up to `next_round`.
    pub curve: TuningCurve,
    /// Per-task state.
    pub tasks: Vec<TaskCheckpoint>,
    /// Measurement subsystem state.
    pub measurer: MeasurerCheckpoint,
    /// Cost-model weights and optimizer state.
    pub model: ModelSnapshot,
    /// MTL Siamese state, when MTL is configured.
    pub mtl: Option<Mtl>,
    /// Words consumed from the campaign RNG (seeded from `config.seed`).
    pub rng_word_offset: u64,
}

impl Checkpoint {
    /// Current checkpoint format version. Version 2 replaced the
    /// measurer's inline simulator fields with a backend-tagged
    /// configuration string, making checkpoints backend-generic.
    /// Version 3 embeds the [`CampaignPhase`], making mid-round
    /// checkpoints (and therefore park/resume at any step) possible.
    /// Version 4 writes every tensor's data as a hex string of its
    /// `f32` bit patterns ([`pruner_nn::Tensor`]) instead of decimals.
    pub const VERSION: u32 = 4;

    /// Serializes and atomically, durably writes the checkpoint to
    /// `path` (tmp + fsync + rename + parent-directory fsync).
    pub fn save(&self, path: &Path) -> io::Result<()> {
        self.save_with(path, None)
    }

    /// [`Checkpoint::save`] with an optional seeded I/O fault injector —
    /// the hook the chaos harness uses to prove a failed checkpoint
    /// write never corrupts the previous checkpoint.
    pub(crate) fn save_with(&self, path: &Path, faults: Option<&IoFaults>) -> io::Result<()> {
        let json = serde_json::to_string(self)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        write_atomic_durable(path, &json, faults)
    }

    /// Loads and validates a checkpoint from `path`.
    pub fn load(path: &Path) -> io::Result<Checkpoint> {
        load_versioned(path, "checkpoint", Checkpoint::VERSION)
    }
}

/// Reads the JSON document `what` at `path`, opens it through the
/// [`open_versioned`] gate (key `version`, expected value `v`) and decodes
/// it. Every failure but the read itself is `InvalidData`.
pub(crate) fn load_versioned<T: Deserialize>(path: &Path, what: &str, v: u32) -> io::Result<T> {
    let text = fs::read_to_string(path)?;
    let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let content = open_versioned(&text, "version", v.into()).map_err(|e| match e {
        DecodeError::Version { got } => {
            invalid(format!("{what} version {got} unsupported (expected {v})"))
        }
        other => invalid(other.to_string()),
    })?;
    T::from_content(&content).map_err(|e| invalid(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::Measurer;
    use pruner_gpu::{Backend, FaultModel, Simulator};
    use pruner_sketch::HardwareLimits;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn demo_checkpoint() -> Checkpoint {
        let wl = Workload::matmul(1, 256, 256, 256);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let prog = Program::sample(&wl, &HardwareLimits::default(), &mut rng);
        let mut measurer = Measurer::new(Simulator::new(GpuSpec::t4()));
        let out = measurer.measure(&prog, &mut pruner_trace::NoopRecorder);
        assert!(out.is_success());
        Checkpoint {
            version: Checkpoint::VERSION,
            config: TunerConfig::quick(),
            spec: GpuSpec::t4(),
            psa_cfg: PsaConfig::default(),
            next_round: 3,
            phase: CampaignPhase::Proposing { round: 3 },
            curve: TuningCurve::new(),
            tasks: vec![TaskCheckpoint {
                workload: wl,
                task_id: 0,
                weight: 1,
                measured: vec![(prog, out.latency().unwrap())],
                quarantined: vec!["some-key".into()],
                quarantined_fps: vec![0x1234_5678_9abc_def0],
                rounds_since_improvement: 2,
            }],
            measurer: MeasurerCheckpoint {
                time: TimeModel::default(),
                policy: RetryPolicy::default(),
                backend_tag: Simulator::TAG.to_string(),
                backend_cfg: {
                    let mut sim = Simulator::new(GpuSpec::t4());
                    sim.set_fault_model(Some(FaultModel::from_rate(9, 0.25)));
                    sim.checkpoint_config()
                },
                cache: measurer.cache_entries(),
                stats: measurer.stats(),
                attempts: 1,
            },
            model: ModelSnapshot::Random(pruner_cost::RandomModel::new(3)),
            mtl: None,
            rng_word_offset: 17,
        }
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let ckpt = demo_checkpoint();
        let json = serde_json::to_string(&ckpt).unwrap();
        let back: Checkpoint = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
        assert_eq!(back.next_round, 3);
        assert_eq!(back.tasks[0].quarantined, vec!["some-key".to_string()]);
        assert_eq!(back.measurer.stats, ckpt.measurer.stats);
        assert_eq!(back.measurer.backend_tag, "sim");
        assert_eq!(back.measurer.backend_cfg, ckpt.measurer.backend_cfg);
        let sim =
            Simulator::from_checkpoint_config(&back.spec, &back.measurer.backend_cfg).unwrap();
        assert_eq!(Simulator::fault_model(&sim), Some(&FaultModel::from_rate(9, 0.25)));
    }

    #[test]
    fn save_is_atomic_and_load_round_trips() {
        let dir = std::env::temp_dir().join("pruner-ckpt-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("campaign.json");
        let ckpt = demo_checkpoint();
        ckpt.save(&path).unwrap();
        assert!(!path.with_extension("json.tmp").exists(), "tmp file must be renamed away");
        let back = Checkpoint::load(&path).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), serde_json::to_string(&ckpt).unwrap());
        fs::remove_dir_all(&dir).ok();
    }

    /// A checkpoint written before the fingerprint dedup path (pre
    /// `quarantined_fps`) must still load: the field defaults to empty and
    /// the task layer restores each missing entry as a `0` sentinel.
    #[test]
    fn pre_fingerprint_checkpoint_loads_with_zero_sentinels() {
        let dir = std::env::temp_dir().join("pruner-ckpt-backcompat-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("legacy.json");
        // Derive the legacy fixture from the modern demo checkpoint by
        // deleting the field a pre-fingerprint writer never emitted.
        let json = serde_json::to_string(&demo_checkpoint()).unwrap();
        let field = "\"quarantined_fps\":[1311768467463790320],";
        assert!(json.contains(field), "fixture derivation lost the fps field");
        fs::write(&path, json.replace(field, "")).unwrap();

        let back = Checkpoint::load(&path).unwrap();
        assert_eq!(back.tasks[0].quarantined, vec!["some-key".to_string()]);
        assert!(
            back.tasks[0].quarantined_fps.is_empty(),
            "missing field must default to empty, not error"
        );

        // Through the task layer: every quarantined key without a stored
        // fingerprint restores as the 0 sentinel.
        let task = crate::task::TaskTuner::from_checkpoint(
            back.tasks[0].workload.clone(),
            back.tasks[0].task_id,
            back.tasks[0].weight,
            back.tasks[0].measured.clone(),
            back.tasks[0].quarantined.clone(),
            back.tasks[0].quarantined_fps.clone(),
            back.tasks[0].rounds_since_improvement,
        );
        assert_eq!(task.quarantined_fps(), vec![0], "missing fps restore as 0 sentinels");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let dir = std::env::temp_dir().join("pruner-ckpt-version-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("campaign.json");
        let mut ckpt = demo_checkpoint();
        ckpt.version = 999;
        ckpt.save(&path).unwrap();
        let err = Checkpoint::load(&path).unwrap_err();
        assert!(err.to_string().contains("version"), "unexpected error: {err}");
        fs::remove_dir_all(&dir).ok();
    }

    /// A newer build's checkpoint whose layout changed too is reported as
    /// what it is — a version mismatch — not as a missing field.
    #[test]
    fn future_version_with_unparseable_layout_is_a_version_mismatch() {
        let dir = std::env::temp_dir().join("pruner-ckpt-future-layout-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("campaign.json");
        let next = Checkpoint::VERSION + 1;
        fs::write(&path, format!(r#"{{"version":{next},"campaign":{{"layout":"rewritten"}}}}"#))
            .unwrap();
        let err = Checkpoint::load(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(
            err.to_string(),
            format!("checkpoint version {next} unsupported (expected {})", Checkpoint::VERSION)
        );
        fs::remove_dir_all(&dir).ok();
    }
}
