//! Cross-hardware continual-learning fleet: one workload suite tuned
//! across an ordered roster of devices in a single process.
//!
//! The fleet extends Momentum Transfer Learning ([`Mtl`](crate::Mtl)) from the
//! paper's two-platform setting to an N-device roster. One **shared
//! Siamese trunk** travels down the roster: each stage runs a full
//! supervised campaign with [`ModelSetup::Mtl`] seeded from the Siamese
//! state the previous stage left behind, then hands the evolved weights
//! to the next stage. Per-device calibration lives in **per-fingerprint
//! scoring heads** ([`pruner_cost::HeadSnapshot`], keyed by
//! [`GpuSpec::fingerprint`]): when the roster revisits a device, its head
//! is restored before the campaign starts, so the trunk keeps learning
//! across platforms while each device's calibration is preserved.
//!
//! After every stage the fleet re-scores **all** roster devices on fixed
//! probe sets (Spearman rank correlation between model scores and
//! negated simulator latencies — higher is better, `+1` means the model
//! ranks every probe exactly as fast as it really is). The resulting
//! stage × device score matrix is the anti-forgetting ledger:
//!
//! * **transfer efficiency** — `score[stage i][device j] − baseline[j]`,
//!   how much training on device *i* helped (or hurt) device *j*
//!   relative to the pre-trained model;
//! * **forgetting delta** — `score[last][j] − score[stage_of_j][j]`,
//!   how much device *j*'s score decayed between the stage that trained
//!   on it and the end of the roster (negative = forgot).
//!
//! Determinism: the fleet honors the repo-wide contract. Pre-training,
//! probe generation and probe scoring are seeded and single-banded;
//! campaigns are byte-identical at any thread count; and the fleet
//! manifest written after every stage makes a mid-roster kill+resume
//! byte-identical to an uninterrupted run. `tests/fleet.rs` pins both.
//!
//! See `docs/FLEET.md` for the on-disk layout and a worked example.

use crate::mtl::pretrain_pacm;
use crate::supervisor::{CampaignOutcome, Supervisor, SupervisorConfig};
use crate::tuner::{ModelSetup, Tuner, TunerConfig, TuningResult};
use pruner_cost::{CostModel, HeadSnapshot, PacmModel, Sample};
use pruner_gpu::{GpuSpec, Simulator};
use pruner_ir::Workload;
use pruner_sketch::Program;
use pruner_store::{write_atomic_durable, Store};
use pruner_trace::{NoopRecorder, Record, Recorder};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::io;
use std::path::PathBuf;

/// Manifest schema version; bumped on breaking layout changes.
pub const FLEET_MANIFEST_VERSION: u32 = 1;

/// Seed salt deriving the pre-training sample stream from the fleet seed.
const PRETRAIN_SEED_SALT: u64 = 0xF1EE_7000_0000_0001;
/// Seed salt deriving per-device probe streams from the fleet seed.
const PROBE_SEED_SALT: u64 = 0xF1EE_7000_0000_0002;

/// Fleet policy: the roster, the suite, and the per-stage campaign knobs.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Ordered device roster. Stages run in this order; a device may
    /// appear more than once (its head is restored on revisit).
    pub roster: Vec<GpuSpec>,
    /// The workload suite, with per-workload weights (every stage tunes
    /// the full suite).
    pub workloads: Vec<(Workload, u64)>,
    /// Per-stage campaign parameters (seed, rounds, threads, …). The
    /// same config drives every stage; determinism comes from the seeds
    /// inside, not the stage index.
    pub tuner: TunerConfig,
    /// MTL momentum folding each stage's target back into the Siamese.
    pub momentum: f32,
    /// Pre-training samples drawn per workload on the first roster
    /// device before stage 0.
    pub pretrain_per_workload: usize,
    /// Pre-training epochs.
    pub pretrain_epochs: usize,
    /// Probe programs per workload per device for the anti-forgetting
    /// evaluation.
    pub probes_per_workload: usize,
    /// Fleet-level seed: pre-training sample stream and per-device probe
    /// streams derive from it (the campaigns use `tuner.seed`).
    pub seed: u64,
    /// State directory: the manifest (`fleet.json`), per-stage
    /// supervisor checkpoints (`stage-<s>.ckpt.json`) and — unless
    /// [`FleetConfig::store`] points elsewhere — the shared record store.
    pub state_dir: PathBuf,
    /// Shared measurement store for all stages (warm start is always on;
    /// replay filters by device fingerprint so stages never see another
    /// device's latencies). `None` runs storeless.
    pub store: Option<PathBuf>,
    /// Park the fleet after this many completed stages (counted across
    /// resumes) — the kill half of mid-roster kill+resume testing.
    pub halt_after_stages: Option<usize>,
    /// Supervision policy template for each stage; the fleet overrides
    /// the checkpoint path per stage.
    pub supervisor: SupervisorConfig,
}

impl FleetConfig {
    /// A scaled-down fleet for tests and quick demos: quick campaigns,
    /// small pre-train/probe sets, no deadlines.
    pub fn quick(roster: Vec<GpuSpec>, state_dir: PathBuf) -> FleetConfig {
        FleetConfig {
            roster,
            workloads: vec![(Workload::matmul(1, 128, 128, 128), 1)],
            tuner: TunerConfig::quick(),
            momentum: 0.99,
            pretrain_per_workload: 24,
            pretrain_epochs: 3,
            probes_per_workload: 16,
            seed: 42,
            state_dir,
            store: None,
            halt_after_stages: None,
            supervisor: SupervisorConfig::default(),
        }
    }
}

/// One device's line in the fleet summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetDeviceSummary {
    /// Device display name.
    pub name: String,
    /// [`GpuSpec::fingerprint`] — the head key and the store replay key.
    pub fingerprint: String,
    /// Roster stage index that tuned this entry.
    pub stage: usize,
    /// Best weighted latency the stage's campaign reached, seconds.
    pub best_latency_s: f64,
    /// Programs measured by the stage's campaign.
    pub trials: u64,
}

/// One cell of the transfer-efficiency ledger: how training on one
/// device moved another device's probe score relative to baseline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransferPair {
    /// Stage index whose training produced this evaluation.
    pub stage: usize,
    /// Device the stage trained on.
    pub trained_on: String,
    /// Device being evaluated.
    pub evaluated: String,
    /// Probe Spearman after the stage (with the evaluated device's head
    /// restored, when one exists).
    pub score: f64,
    /// `score − baseline[evaluated]`: positive = transfer helped.
    pub delta_vs_baseline: f64,
}

/// One device's forgetting ledger entry: probe score right after its own
/// training stage vs. at the end of the roster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ForgettingDelta {
    /// Device evaluated.
    pub device: String,
    /// Last roster stage that trained on this device.
    pub trained_stage: usize,
    /// Probe Spearman right after that stage.
    pub score_after_training: f64,
    /// Probe Spearman after the final stage.
    pub final_score: f64,
    /// `final_score − score_after_training`: negative = the fleet forgot
    /// this device as it moved on.
    pub delta: f64,
}

/// The anti-forgetting evaluation: baseline scores, the full stage ×
/// device score matrix, and the derived transfer/forgetting ledgers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetTransferReport {
    /// Probe Spearman per roster device under the pre-trained model,
    /// before any stage ran (roster order).
    pub baseline: Vec<f64>,
    /// `probe_scores[i][j]`: device `j`'s probe Spearman after stage `i`
    /// completed (each row is a full re-scoring of the roster).
    pub probe_scores: Vec<Vec<f64>>,
    /// Every (trained-on, evaluated) pair, stage-major.
    pub transfer: Vec<TransferPair>,
    /// One entry per roster stage's device: how much its score decayed
    /// after the fleet moved on.
    pub forgetting: Vec<ForgettingDelta>,
}

/// Everything a completed fleet run produced. Serializes byte-identically
/// across thread counts and across kill+resume (`tests/fleet.rs` pins
/// both); host-time fields are excluded by construction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetResult {
    /// Per-stage device summaries, roster order.
    pub devices: Vec<FleetDeviceSummary>,
    /// Per-stage campaign results, roster order.
    pub results: Vec<TuningResult>,
    /// The transfer/forgetting ledgers.
    pub report: FleetTransferReport,
}

/// How a fleet run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetStatus {
    /// Every roster stage completed; the result is final.
    Completed,
    /// The fleet parked mid-roster ([`FleetConfig::halt_after_stages`] or
    /// a stage hit its wall deadline); the manifest on disk resumes it.
    Parked,
}

/// The outcome of one [`Fleet::run`] call.
#[derive(Debug)]
pub struct FleetRun {
    /// Completed or parked.
    pub status: FleetStatus,
    /// Stages completed so far (across resumes).
    pub stages_done: usize,
    /// The final result; `None` while parked.
    pub result: Option<FleetResult>,
}

/// The crash-safe on-disk fleet state, written atomically after every
/// completed stage. A fleet constructed over an existing manifest resumes
/// from `stages_done` and reproduces the uninterrupted bytes exactly.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct FleetManifest {
    version: u32,
    stages_done: usize,
    siamese: PacmModel,
    /// Per-fingerprint heads as a vec of pairs — deterministic
    /// serialization order (insertion order), unlike a map.
    heads: Vec<(String, HeadSnapshot)>,
    baseline: Vec<f64>,
    probe_scores: Vec<Vec<f64>>,
    devices: Vec<FleetDeviceSummary>,
    results: Vec<TuningResult>,
}

/// The fleet orchestrator; see the module docs.
pub struct Fleet {
    cfg: FleetConfig,
    recorder: Box<dyn Recorder>,
}

impl Fleet {
    /// Creates a fleet over `cfg`.
    ///
    /// # Panics
    /// Panics if the roster or the workload suite is empty, or if
    /// `momentum` is outside `[0, 1]`.
    pub fn new(cfg: FleetConfig) -> Fleet {
        assert!(!cfg.roster.is_empty(), "fleet roster must not be empty");
        assert!(!cfg.workloads.is_empty(), "fleet workload suite must not be empty");
        assert!(
            (0.0..=1.0).contains(&cfg.momentum),
            "momentum must be in [0,1]"
        );
        Fleet { cfg, recorder: Box::new(NoopRecorder) }
    }

    /// Installs a [`Recorder`] for `fleet.*` records. The same trace is
    /// forked into each stage's supervisor and campaign, so one trace
    /// covers the whole roster.
    pub fn set_recorder(&mut self, recorder: Box<dyn Recorder>) {
        self.recorder = recorder;
    }

    /// The manifest path inside the state directory.
    pub fn manifest_path(&self) -> PathBuf {
        self.cfg.state_dir.join("fleet.json")
    }

    /// The supervisor checkpoint path for stage `stage`.
    pub fn stage_checkpoint_path(&self, stage: usize) -> PathBuf {
        self.cfg.state_dir.join(format!("stage-{stage}.ckpt.json"))
    }

    /// Runs the roster to completion (or to a park point), resuming from
    /// an existing manifest when one is on disk.
    pub fn run(&mut self) -> io::Result<FleetRun> {
        std::fs::create_dir_all(&self.cfg.state_dir)?;
        let mut state = self.load_or_init_state()?;
        if self.recorder.enabled() {
            self.recorder.emit(
                Record::new("fleet.start")
                    .u64("roster", self.cfg.roster.len() as u64)
                    .u64("workloads", self.cfg.workloads.len() as u64)
                    .u64("stages_done", state.stages_done as u64),
            );
        }
        while state.stages_done < self.cfg.roster.len() {
            if self
                .cfg
                .halt_after_stages
                .is_some_and(|h| state.stages_done >= h)
            {
                return self.park(state.stages_done);
            }
            let stage = state.stages_done;
            let parked = self.run_stage(&mut state, stage)?;
            if parked {
                return self.park(state.stages_done);
            }
        }
        let result = self.finish(&state);
        if self.recorder.enabled() {
            self.recorder.emit(
                Record::new("fleet.done")
                    .u64("stages", state.stages_done as u64)
                    .u64("transfer_pairs", result.report.transfer.len() as u64),
            );
        }
        Ok(FleetRun {
            status: FleetStatus::Completed,
            stages_done: state.stages_done,
            result: Some(result),
        })
    }

    /// Loads the manifest when present (resume), otherwise pre-trains the
    /// Siamese and scores the baseline (fresh start).
    fn load_or_init_state(&mut self) -> io::Result<FleetManifest> {
        let path = self.manifest_path();
        if path.exists() {
            let text = std::fs::read_to_string(&path)?;
            // Version gate before the full parse: a future layout must be
            // reported as a version mismatch, not as a field error.
            let content = serde_json::parse_content(&text)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            let version = content
                .as_map()
                .and_then(|m| m.iter().find(|(k, _)| k == "version"))
                .and_then(|(_, v)| v.as_u64())
                .unwrap_or(0);
            if version != u64::from(FLEET_MANIFEST_VERSION) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "fleet manifest version {version} != supported {FLEET_MANIFEST_VERSION}"
                    ),
                ));
            }
            let manifest: FleetManifest = serde_json::from_str(&text)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            if self.recorder.enabled() {
                self.recorder.emit(
                    Record::new("fleet.resume")
                        .u64("stages_done", manifest.stages_done as u64),
                );
            }
            return Ok(manifest);
        }
        self.recorder.span_begin("fleet.pretrain");
        let samples = pretrain_samples(
            &self.cfg.roster[0],
            &self.cfg.workloads,
            self.cfg.pretrain_per_workload,
            self.cfg.seed,
        );
        let siamese =
            pretrain_pacm(&samples, self.cfg.pretrain_epochs, self.cfg.tuner.seed);
        self.recorder.span_end("fleet.pretrain");
        if self.recorder.enabled() {
            self.recorder.emit(
                Record::new("fleet.pretrain")
                    .u64("samples", samples.len() as u64)
                    .u64("epochs", self.cfg.pretrain_epochs as u64),
            );
        }
        let heads: Vec<(String, HeadSnapshot)> = Vec::new();
        let baseline: Vec<f64> = (0..self.cfg.roster.len())
            .map(|j| self.probe_score(&siamese, &heads, j))
            .collect();
        Ok(FleetManifest {
            version: FLEET_MANIFEST_VERSION,
            stages_done: 0,
            siamese,
            heads,
            baseline,
            probe_scores: Vec::new(),
            devices: Vec::new(),
            results: Vec::new(),
        })
    }

    /// Runs one roster stage under supervision: restore the device's head
    /// (revisit), tune, carry the Siamese forward, snapshot the head,
    /// re-score the whole roster, persist the manifest. Returns `true`
    /// when the stage parked instead of completing.
    fn run_stage(&mut self, state: &mut FleetManifest, stage: usize) -> io::Result<bool> {
        let spec = self.cfg.roster[stage].clone();
        let fp = spec.fingerprint();
        let mut pretrained = state.siamese.clone();
        if let Some((_, head)) = state.heads.iter().find(|(k, _)| *k == fp) {
            pretrained.restore_head(head);
        }
        let ckpt_path = self.stage_checkpoint_path(stage);
        let mut sup_cfg = self.cfg.supervisor.clone();
        sup_cfg.checkpoint = Some(ckpt_path.clone());
        sup_cfg.seed = self.cfg.tuner.seed ^ (stage as u64);
        let mut supervisor = Supervisor::new(sup_cfg);
        if let Some(rec) = self.recorder.fork() {
            supervisor.set_recorder(rec);
        }
        let cfg = self.cfg.tuner;
        let momentum = self.cfg.momentum;
        let workloads = self.cfg.workloads.clone();
        let store_path = self.cfg.store.clone();
        let recorder = &mut self.recorder;
        let run = supervisor.run(move |ckpt| {
            let mut tuner: Tuner<Simulator> = match ckpt {
                Some(ckpt) => Tuner::from_checkpoint_backend(ckpt)?,
                None if ckpt_path.exists() => Tuner::resume(&ckpt_path)?,
                None => {
                    let mut t = Tuner::new(
                        spec.clone(),
                        cfg,
                        ModelSetup::Mtl { pretrained: pretrained.clone(), momentum },
                    );
                    for (wl, weight) in &workloads {
                        t.add_task(wl.clone(), *weight);
                    }
                    t
                }
            };
            tuner.set_checkpoint_path(&ckpt_path);
            if let Some(path) = &store_path {
                let store = Store::open(path)
                    .map_err(|e| io::Error::new(e.kind(), format!("fleet store: {e}")))?;
                tuner.set_store(store, true);
            }
            if let Some(rec) = recorder.fork() {
                tuner.set_recorder(rec);
            }
            Ok(tuner)
        });
        match run.outcome {
            CampaignOutcome::Completed => {}
            CampaignOutcome::WallDeadlineExceeded
            | CampaignOutcome::SimDeadlineExceeded
            | CampaignOutcome::Cancelled => return Ok(true),
            CampaignOutcome::Quarantined => {
                return Err(io::Error::other(format!(
                    "fleet stage {stage} quarantined after {} faults",
                    run.faults.len()
                )));
            }
        }
        let result = run.result.expect("completed stage has a result");
        let mtl = run.mtl.expect("fleet stages run with ModelSetup::Mtl");
        state.siamese = mtl.siamese().clone();
        let head = state.siamese.head_snapshot();
        match state.heads.iter_mut().find(|(k, _)| *k == fp) {
            Some(slot) => slot.1 = head,
            None => state.heads.push((fp.clone(), head)),
        }
        if self.recorder.enabled() {
            self.recorder.emit(
                Record::new("fleet.stage")
                    .u64("stage", stage as u64)
                    .str("device", spec_name(&self.cfg.roster[stage]))
                    .str("fingerprint", fp.clone())
                    .f64("best_latency_s", result.best_latency_s)
                    .u64("trials", result.stats.trials),
            );
        }
        let row: Vec<f64> = (0..self.cfg.roster.len())
            .map(|j| self.probe_score(&state.siamese, &state.heads, j))
            .collect();
        if self.recorder.enabled() {
            for (j, score) in row.iter().enumerate() {
                self.recorder.emit(
                    Record::new("fleet.eval")
                        .u64("stage", stage as u64)
                        .str("device", spec_name(&self.cfg.roster[j]))
                        .f64("score", *score),
                );
            }
        }
        state.probe_scores.push(row);
        state.devices.push(FleetDeviceSummary {
            name: spec_name(&self.cfg.roster[stage]),
            fingerprint: fp,
            stage,
            best_latency_s: result.best_latency_s,
            trials: result.stats.trials,
        });
        state.results.push(result);
        state.stages_done = stage + 1;
        self.write_manifest(state)?;
        Ok(false)
    }

    /// Scores roster device `j`'s probe set under `siamese` with device
    /// `j`'s head restored when one exists: Spearman between model scores
    /// and negated simulator latencies (higher = better ranking).
    fn probe_score(
        &self,
        siamese: &PacmModel,
        heads: &[(String, HeadSnapshot)],
        j: usize,
    ) -> f64 {
        let spec = &self.cfg.roster[j];
        let fp = spec.fingerprint();
        let mut model = siamese.clone();
        if let Some((_, head)) = heads.iter().find(|(k, _)| *k == fp) {
            model.restore_head(head);
        }
        let probes = probe_samples(
            spec,
            &self.cfg.workloads,
            self.cfg.probes_per_workload,
            self.cfg.seed,
        );
        let scores: Vec<f64> =
            model.predict_batch(&probes, 1).into_iter().map(f64::from).collect();
        let neg_latency: Vec<f64> = probes.iter().map(|s| -s.latency).collect();
        pruner_cost::metrics::spearman(&scores, &neg_latency)
    }

    /// Parks the fleet: the manifest already on disk is the resume point.
    fn park(&mut self, stages_done: usize) -> io::Result<FleetRun> {
        if self.recorder.enabled() {
            self.recorder
                .emit(Record::new("fleet.park").u64("stages_done", stages_done as u64));
        }
        Ok(FleetRun { status: FleetStatus::Parked, stages_done, result: None })
    }

    /// Builds the final [`FleetResult`] from a fully-run state.
    fn finish(&self, state: &FleetManifest) -> FleetResult {
        let n = self.cfg.roster.len();
        let names: Vec<String> = self.cfg.roster.iter().map(spec_name).collect();
        let mut transfer = Vec::new();
        for (i, row) in state.probe_scores.iter().enumerate() {
            for (j, score) in row.iter().enumerate() {
                transfer.push(TransferPair {
                    stage: i,
                    trained_on: names[i].clone(),
                    evaluated: names[j].clone(),
                    score: *score,
                    delta_vs_baseline: score - state.baseline[j],
                });
            }
        }
        let last = state.probe_scores.len() - 1;
        let forgetting: Vec<ForgettingDelta> = (0..n)
            .map(|j| {
                // The last stage that trained on device j (a roster may
                // revisit a device; forgetting is measured from the most
                // recent visit).
                let trained_stage = (0..n)
                    .rev()
                    .find(|&i| {
                        self.cfg.roster[i].fingerprint()
                            == self.cfg.roster[j].fingerprint()
                    })
                    .expect("device j is its own visit");
                let after = state.probe_scores[trained_stage][j];
                let final_score = state.probe_scores[last][j];
                ForgettingDelta {
                    device: names[j].clone(),
                    trained_stage,
                    score_after_training: after,
                    final_score,
                    delta: final_score - after,
                }
            })
            .collect();
        FleetResult {
            devices: state.devices.clone(),
            results: state.results.clone(),
            report: FleetTransferReport {
                baseline: state.baseline.clone(),
                probe_scores: state.probe_scores.clone(),
                transfer,
                forgetting,
            },
        }
    }

    /// Writes the manifest atomically and durably.
    fn write_manifest(&self, state: &FleetManifest) -> io::Result<()> {
        let json = serde_json::to_string(state)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        write_atomic_durable(&self.manifest_path(), &json, None)
    }
}

/// Display name of a roster device (its spec `name` field).
fn spec_name(spec: &GpuSpec) -> String {
    spec.name.clone()
}

/// The seeded pre-training set: `per_workload` sampled programs per
/// workload on `spec`, labeled with noiseless simulator latencies.
/// Single-threaded and fully determined by `(spec, workloads, seed)`.
pub fn pretrain_samples(
    spec: &GpuSpec,
    workloads: &[(Workload, u64)],
    per_workload: usize,
    seed: u64,
) -> Vec<Sample> {
    let sim = Simulator::new(spec.clone());
    let limits = spec.limits();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ PRETRAIN_SEED_SALT);
    let mut samples = Vec::with_capacity(workloads.len() * per_workload);
    for (ti, (wl, _)) in workloads.iter().enumerate() {
        for _ in 0..per_workload {
            let p = Program::sample(wl, &limits, &mut rng);
            let lat = sim.latency(&p);
            samples.push(Sample::labeled(&p, lat, ti));
        }
    }
    samples
}

/// The seeded probe set for one device: `per_workload` sampled programs
/// per workload, labeled with noiseless simulator latencies. The stream
/// is keyed by the device fingerprint, so each device gets its own fixed
/// probes — regenerated on demand, never stored.
pub fn probe_samples(
    spec: &GpuSpec,
    workloads: &[(Workload, u64)],
    per_workload: usize,
    seed: u64,
) -> Vec<Sample> {
    let sim = Simulator::new(spec.clone());
    let limits = spec.limits();
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    use std::hash::{Hash, Hasher};
    (seed ^ PROBE_SEED_SALT).hash(&mut hasher);
    spec.fingerprint().hash(&mut hasher);
    let mut rng = ChaCha8Rng::seed_from_u64(hasher.finish());
    let mut samples = Vec::with_capacity(workloads.len() * per_workload);
    for (ti, (wl, _)) in workloads.iter().enumerate() {
        for _ in 0..per_workload {
            let p = Program::sample(wl, &limits, &mut rng);
            let lat = sim.latency(&p);
            samples.push(Sample::labeled(&p, lat, ti));
        }
    }
    samples
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fresh scratch directory under the system temp dir (the repo has no
    /// tempdir dev-dependency; unique names keep parallel tests apart).
    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pruner-fleet-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn quick_fleet(dir: &std::path::Path, roster: Vec<GpuSpec>) -> FleetConfig {
        let mut cfg = FleetConfig::quick(roster, dir.to_path_buf());
        cfg.tuner = TunerConfig {
            rounds: 2,
            measure_per_round: 2,
            space_size: 16,
            target_pool: 16,
            train_epochs: 1,
            mtl_epochs: 1,
            threads: 1,
            ..TunerConfig::quick()
        };
        cfg.pretrain_per_workload = 8;
        cfg.pretrain_epochs = 1;
        cfg.probes_per_workload = 8;
        cfg
    }

    #[test]
    fn fleet_runs_roster_and_reports_transfer() {
        let dir = scratch("roster");
        let cfg = quick_fleet(&dir, vec![GpuSpec::k80(), GpuSpec::t4()]);
        let run = Fleet::new(cfg).run().unwrap();
        assert_eq!(run.status, FleetStatus::Completed);
        let result = run.result.unwrap();
        assert_eq!(result.devices.len(), 2);
        assert_eq!(result.report.baseline.len(), 2);
        assert_eq!(result.report.probe_scores.len(), 2);
        assert_eq!(result.report.transfer.len(), 4);
        assert_eq!(result.report.forgetting.len(), 2);
        for f in &result.report.forgetting {
            assert!(
                (f.delta - (f.final_score - f.score_after_training)).abs() < 1e-12,
                "forgetting delta must be final − after-training"
            );
        }
        for t in &result.report.transfer {
            assert!(t.score.is_finite() && t.score.abs() <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn fleet_halt_and_resume_is_byte_identical() {
        let full_dir = scratch("full");
        let cfg = quick_fleet(&full_dir, vec![GpuSpec::k80(), GpuSpec::t4()]);
        let full = Fleet::new(cfg.clone()).run().unwrap().result.unwrap();

        let halt_dir = scratch("halted");
        let mut halted = quick_fleet(&halt_dir, vec![GpuSpec::k80(), GpuSpec::t4()]);
        halted.halt_after_stages = Some(1);
        let parked = Fleet::new(halted.clone()).run().unwrap();
        assert_eq!(parked.status, FleetStatus::Parked);
        assert_eq!(parked.stages_done, 1);
        halted.halt_after_stages = None;
        let resumed = Fleet::new(halted).run().unwrap().result.unwrap();
        assert_eq!(
            serde_json::to_string(&full).unwrap(),
            serde_json::to_string(&resumed).unwrap(),
            "kill+resume must be byte-identical"
        );
    }

    #[test]
    fn probe_samples_are_device_keyed_and_stable() {
        let wls = vec![(Workload::matmul(1, 128, 128, 128), 1)];
        let a1 = probe_samples(&GpuSpec::k80(), &wls, 4, 7);
        let a2 = probe_samples(&GpuSpec::k80(), &wls, 4, 7);
        let b = probe_samples(&GpuSpec::t4(), &wls, 4, 7);
        assert_eq!(
            a1.iter().map(|s| s.latency).collect::<Vec<_>>(),
            a2.iter().map(|s| s.latency).collect::<Vec<_>>(),
            "same device + seed → same probes"
        );
        assert_ne!(
            a1.iter().map(|s| s.latency).collect::<Vec<_>>(),
            b.iter().map(|s| s.latency).collect::<Vec<_>>(),
            "different devices draw different probe streams"
        );
    }

    #[test]
    fn manifest_version_mismatch_is_rejected() {
        let dir = scratch("version");
        let cfg = quick_fleet(&dir, vec![GpuSpec::k80()]);
        let fleet = Fleet::new(cfg.clone());
        std::fs::write(
            fleet.manifest_path(),
            r#"{"version":999,"stages_done":0,"siamese":{},"heads":[],"baseline":[],"probe_scores":[],"devices":[],"results":[]}"#,
        )
        .unwrap();
        let err = Fleet::new(cfg).run().unwrap_err();
        assert!(err.to_string().contains("version"), "got: {err}");
    }
}
