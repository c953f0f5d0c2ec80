//! The crash-safe campaign supervisor: watchdog, deadlines, bounded
//! restarts.
//!
//! [`Supervisor::run`] drives one campaign on a worker thread and watches
//! it from outside: a heartbeat-based watchdog catches *stalled* rounds
//! (a measurement that never returns — the failure class the in-campaign
//! retry loop cannot see), `catch_unwind` catches panics, and
//! [`CampaignStatus::Failed`] surfaces checkpoint/store write errors as
//! typed [`CampaignFault`]s instead of aborts. Every fault triggers a
//! bounded restart: seeded exponential backoff with deterministic jitter,
//! then the campaign is rebuilt from its last on-disk [`Checkpoint`]
//! through the caller's factory. Because a resumed campaign is
//! byte-identical to an uninterrupted one (the repo's core determinism
//! contract), a supervised campaign that faulted and restarted produces
//! *exactly* the result of one that never did.
//!
//! Two deadline kinds bound a campaign:
//!
//! * **wall deadline** — real host seconds across all attempts; on expiry
//!   the supervisor asks the worker to park (checkpoint + store flush)
//!   and returns [`CampaignOutcome::WallDeadlineExceeded`].
//! * **simulated deadline** — the campaign's own simulated-time ledger
//!   ([`Tuner::stats`]); the worker parks itself the moment the ledger
//!   crosses the budget ([`CampaignOutcome::SimDeadlineExceeded`]).
//!
//! After [`SupervisorConfig::max_restarts`] faults the campaign is
//! *quarantined* — the supervisor gives up and reports
//! [`CampaignOutcome::Quarantined`] with the full fault history.
//!
//! Everything the supervisor does is visible in the trace as
//! `supervisor.*` records (start/fault/restart/quarantine/done), which
//! the end-of-campaign [`pruner_trace::Report`] aggregates into its own
//! section.

use crate::checkpoint::Checkpoint;
use crate::mtl::Mtl;
use crate::state::CampaignStatus;
use crate::tuner::{Tuner, TuningResult};
use pruner_gpu::Backend;
use pruner_trace::{NoopRecorder, Record, Recorder};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seed salt deriving the restart-backoff jitter stream from the
/// supervisor seed.
const RESTART_SEED_SALT: u64 = 0x5AFE_57A7_5AFE_57A7;

/// [`SupervisorConfig::stop`] value: no stop requested; keep running.
pub const STOP_NONE: u8 = 0;
/// [`SupervisorConfig::stop`] value: park the campaign (checkpoint + store
/// flush) at the next step boundary and end the run as
/// [`CampaignOutcome::Cancelled`]. A graceful cancel — the checkpoint can
/// be resumed later.
pub const STOP_PARK: u8 = 1;
/// [`SupervisorConfig::stop`] value: abandon the campaign at the next step
/// boundary *without* parking or flushing anything — the in-process
/// equivalent of `kill -9`. The last cadence checkpoint on disk (if any)
/// is what a later resume sees. Ends the run as
/// [`CampaignOutcome::Cancelled`] with no result.
pub const STOP_KILL: u8 = 2;

/// Supervision policy for one campaign.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Host-seconds budget across all attempts; `None` means unbounded.
    /// On expiry the campaign is parked (checkpointed) and the run
    /// reports [`CampaignOutcome::WallDeadlineExceeded`].
    pub wall_deadline_s: Option<f64>,
    /// Simulated-seconds budget (the campaign's own [`Tuner::stats`]
    /// ledger); `None` means unbounded. The worker parks itself when the
    /// ledger crosses it.
    pub sim_deadline_s: Option<f64>,
    /// Host seconds of heartbeat silence before the watchdog declares the
    /// campaign stalled.
    pub watchdog_timeout_s: f64,
    /// How often the supervisor polls the worker, host seconds. Bounds
    /// watchdog detection latency.
    pub poll_interval_s: f64,
    /// Restarts allowed before the campaign is quarantined.
    pub max_restarts: u32,
    /// First restart backoff, host seconds.
    pub backoff_base_s: f64,
    /// Backoff multiplier per successive restart.
    pub backoff_mult: f64,
    /// Relative jitter on each backoff (±fraction), drawn from a stream
    /// seeded by [`SupervisorConfig::seed`] — deterministic per seed.
    pub backoff_jitter: f64,
    /// Seed of the backoff-jitter stream.
    pub seed: u64,
    /// Checkpoint file the campaign writes and restarts resume from.
    /// Without one, restarts rebuild from scratch and deadline parks skip
    /// persistence (the in-memory result snapshot is still returned).
    pub checkpoint: Option<PathBuf>,
    /// External stop request, polled at every worker step boundary and
    /// every supervisor poll tick: [`STOP_NONE`] runs normally,
    /// [`STOP_PARK`] cancels gracefully (park, then
    /// [`CampaignOutcome::Cancelled`]), [`STOP_KILL`] abandons without
    /// persisting anything. A daemon can share one signal across its
    /// campaigns to stop them all, or give each campaign its own for
    /// per-tenant cancellation. A set signal also suppresses restarts: a
    /// fault while stopping ends the run as cancelled instead of backing
    /// off.
    pub stop: Option<Arc<AtomicU8>>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            wall_deadline_s: None,
            sim_deadline_s: None,
            watchdog_timeout_s: 30.0,
            poll_interval_s: 0.05,
            max_restarts: 3,
            backoff_base_s: 0.1,
            backoff_mult: 2.0,
            backoff_jitter: 0.1,
            seed: 0,
            checkpoint: None,
            stop: None,
        }
    }
}

/// One detected campaign failure, typed by failure domain.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignFault {
    /// The worker's heartbeat went silent: a measurement (or any single
    /// state-machine step) hung longer than the watchdog timeout.
    Stalled {
        /// Host seconds since the last heartbeat when the watchdog fired.
        idle_s: f64,
    },
    /// The campaign panicked (caught via `catch_unwind`).
    Panicked {
        /// The panic payload, when it was a string.
        message: String,
    },
    /// The campaign reported [`CampaignStatus::Failed`] — a checkpoint or
    /// store write error surfaced by the state machine.
    Io {
        /// The failure reason.
        message: String,
    },
    /// The restart checkpoint could not be loaded or the factory failed
    /// to rebuild the campaign from it.
    CheckpointUnreadable {
        /// The load/rebuild error.
        message: String,
    },
}

impl CampaignFault {
    /// Stable snake_case class name, used in `supervisor.fault` trace
    /// records and report aggregation.
    pub fn label(&self) -> &'static str {
        match self {
            CampaignFault::Stalled { .. } => "stalled",
            CampaignFault::Panicked { .. } => "panicked",
            CampaignFault::Io { .. } => "io",
            CampaignFault::CheckpointUnreadable { .. } => "checkpoint_unreadable",
        }
    }
}

impl std::fmt::Display for CampaignFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignFault::Stalled { idle_s } => {
                write!(f, "stalled: no heartbeat for {idle_s:.2}s")
            }
            CampaignFault::Panicked { message } => write!(f, "panicked: {message}"),
            CampaignFault::Io { message } => write!(f, "io: {message}"),
            CampaignFault::CheckpointUnreadable { message } => {
                write!(f, "checkpoint unreadable: {message}")
            }
        }
    }
}

/// How a supervised campaign ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignOutcome {
    /// The campaign ran to completion (possibly across restarts).
    Completed,
    /// The host wall-clock budget expired; the campaign was parked.
    WallDeadlineExceeded,
    /// The simulated-time budget expired; the campaign parked itself.
    SimDeadlineExceeded,
    /// Too many faults; the supervisor gave up.
    Quarantined,
    /// An external stop was requested via [`SupervisorConfig::stop`]:
    /// parked (with [`STOP_PARK`]) or abandoned (with [`STOP_KILL`]).
    Cancelled,
}

impl CampaignOutcome {
    /// Stable snake_case name, used in `supervisor.done` records.
    pub fn label(&self) -> &'static str {
        match self {
            CampaignOutcome::Completed => "completed",
            CampaignOutcome::WallDeadlineExceeded => "wall_deadline",
            CampaignOutcome::SimDeadlineExceeded => "sim_deadline",
            CampaignOutcome::Quarantined => "quarantined",
            CampaignOutcome::Cancelled => "cancelled",
        }
    }
}

/// The outcome of one supervised campaign: the result (final for
/// [`CampaignOutcome::Completed`], a parked snapshot for deadline exits,
/// absent when quarantined before any attempt finished), plus the full
/// fault and restart history.
#[derive(Debug)]
pub struct SupervisedRun {
    /// The campaign result, when any attempt got far enough to produce
    /// one.
    pub result: Option<TuningResult>,
    /// The final MTL state (evolved Siamese weights) of the campaign,
    /// when it ran with [`ModelSetup::Mtl`](crate::ModelSetup::Mtl) and
    /// completed or parked cleanly. This is how cross-platform transfer
    /// survives the supervisor boundary: the fleet orchestrator
    /// ([`crate::fleet`]) chains the Siamese from one device's campaign
    /// into the next. `None` for non-MTL campaigns and for runs that
    /// ended without a clean result (quarantined, hard-killed).
    pub mtl: Option<Mtl>,
    /// How the supervision ended.
    pub outcome: CampaignOutcome,
    /// Every fault detected, in order.
    pub faults: Vec<CampaignFault>,
    /// Restarts actually performed (≤ faults; the quarantining fault does
    /// not restart).
    pub restarts: u32,
}

/// What a worker thread reports back to the supervisor. Abandoned workers
/// (watchdog-declared stale) report nothing: their channel is simply
/// dropped.
enum WorkerMsg {
    /// The campaign finished; here is the final result plus the final
    /// MTL state (when the campaign ran with momentum transfer).
    Done(Box<TuningResult>, Box<Option<Mtl>>),
    /// The campaign parked; here is the live snapshot.
    Parked {
        /// Why the park happened (decides the [`CampaignOutcome`]).
        reason: ParkReason,
        /// Snapshot at the park point.
        result: Box<TuningResult>,
        /// MTL state at the park point (mirrors the checkpoint).
        mtl: Box<Option<Mtl>>,
    },
    /// The state machine reported a write failure.
    Failed(String),
    /// The campaign panicked.
    Panicked(String),
}

/// Why a worker parked its campaign (each park maps to one outcome).
#[derive(Clone, Copy)]
enum ParkReason {
    /// The simulated-time budget expired (the worker decided).
    Sim,
    /// The supervisor requested the park (wall deadline).
    Wall,
    /// An external [`STOP_PARK`] cancel was requested.
    Cancel,
}

/// What one supervision attempt concluded.
enum Verdict {
    Finished(CampaignOutcome, Option<Box<TuningResult>>, Box<Option<Mtl>>),
    Faulted(CampaignFault),
}

/// The crash-safe campaign driver; see the module docs.
///
/// The caller supplies a *factory* closure that builds the campaign:
/// `factory(None)` for a fresh start, `factory(Some(checkpoint))` after a
/// fault, re-attaching whatever the checkpoint does not carry (the
/// record store, the recorder — use [`Recorder::fork`] to keep one trace
/// across incarnations — and the checkpoint path itself).
pub struct Supervisor {
    cfg: SupervisorConfig,
    recorder: Box<dyn Recorder>,
}

impl Supervisor {
    /// Creates a supervisor with the given policy.
    pub fn new(cfg: SupervisorConfig) -> Supervisor {
        Supervisor { cfg, recorder: Box::new(NoopRecorder) }
    }

    /// Installs a [`Recorder`] for `supervisor.*` records. Hand the same
    /// trace to the campaigns (via the factory) and one trace covers the
    /// supervisor and every campaign incarnation.
    pub fn set_recorder(&mut self, recorder: Box<dyn Recorder>) {
        self.recorder = recorder;
    }

    /// The restart backoff before restart `n` (1-based): exponential in
    /// `n` with deterministic seeded jitter. Public so tests can pin the
    /// schedule.
    pub fn backoff_s(&self, restart: u32) -> f64 {
        let base =
            self.cfg.backoff_base_s * self.cfg.backoff_mult.powi(restart as i32 - 1);
        if self.cfg.backoff_jitter <= 0.0 {
            return base;
        }
        use std::hash::{Hash, Hasher};
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        (self.cfg.seed ^ RESTART_SEED_SALT).hash(&mut hasher);
        u64::from(restart).hash(&mut hasher);
        let mut rng = ChaCha8Rng::seed_from_u64(hasher.finish());
        let u: f64 = rng.gen();
        base * (1.0 + self.cfg.backoff_jitter * (2.0 * u - 1.0))
    }

    /// Runs one campaign under supervision until it completes, parks on a
    /// deadline, or is quarantined.
    ///
    /// The factory is called on the supervisor thread once per attempt:
    /// with `None` on the first attempt (and on restarts that found no
    /// checkpoint on disk yet), with the freshly loaded [`Checkpoint`]
    /// after a fault. The built [`Tuner`] is moved onto a worker thread.
    pub fn run<B, F>(&mut self, mut factory: F) -> SupervisedRun
    where
        B: Backend,
        F: FnMut(Option<Checkpoint>) -> std::io::Result<Tuner<B>>,
    {
        if self.recorder.enabled() {
            let mut start = Record::new("supervisor.start")
                .u64("max_restarts", u64::from(self.cfg.max_restarts))
                .f64("watchdog_timeout_s", self.cfg.watchdog_timeout_s);
            if let Some(d) = self.cfg.wall_deadline_s {
                start = start.f64("wall_deadline_s", d);
            }
            if let Some(d) = self.cfg.sim_deadline_s {
                start = start.f64("sim_deadline_s", d);
            }
            self.recorder.emit(start);
        }
        let started = Instant::now();
        let mut faults: Vec<CampaignFault> = Vec::new();
        let mut restarts: u32 = 0;
        loop {
            let attempt = restarts + 1;
            // Build this attempt's campaign: fresh on the first attempt,
            // from the last on-disk checkpoint after a fault. A missing
            // checkpoint file (the campaign faulted before its first
            // write) restarts from scratch — determinism makes that
            // equivalent, just slower.
            let verdict = match self.load_checkpoint(restarts) {
                Err(fault) => Verdict::Faulted(fault),
                Ok(ckpt) => match factory(ckpt) {
                    Err(e) => Verdict::Faulted(CampaignFault::CheckpointUnreadable {
                        message: e.to_string(),
                    }),
                    Ok(tuner) => self.supervise_attempt(tuner, started, attempt),
                },
            };
            match verdict {
                Verdict::Finished(outcome, result, mtl) => {
                    self.emit_done(outcome, restarts);
                    let result = result.map(|boxed| *boxed);
                    return SupervisedRun { result, mtl: *mtl, outcome, faults, restarts };
                }
                Verdict::Faulted(fault) => {
                    self.emit_fault(&fault, attempt);
                    faults.push(fault);
                    // A fault while a stop is pending is not restarted:
                    // the caller asked the campaign to go away.
                    if self.stop_mode() != STOP_NONE {
                        self.emit_done(CampaignOutcome::Cancelled, restarts);
                        return SupervisedRun {
                            result: None,
                            mtl: None,
                            outcome: CampaignOutcome::Cancelled,
                            faults,
                            restarts,
                        };
                    }
                    if restarts >= self.cfg.max_restarts {
                        if self.recorder.enabled() {
                            self.recorder.emit(
                                Record::new("supervisor.quarantine")
                                    .u64("faults", faults.len() as u64),
                            );
                        }
                        self.emit_done(CampaignOutcome::Quarantined, restarts);
                        return SupervisedRun {
                            result: None,
                            mtl: None,
                            outcome: CampaignOutcome::Quarantined,
                            faults,
                            restarts,
                        };
                    }
                    restarts += 1;
                    let backoff = self.backoff_s(restarts);
                    if self.recorder.enabled() {
                        self.recorder.emit(
                            Record::new("supervisor.restart")
                                .u64("restart", u64::from(restarts))
                                .f64("backoff_s", backoff),
                        );
                    }
                    std::thread::sleep(Duration::from_secs_f64(backoff));
                }
            }
        }
    }

    /// The current value of the external stop signal ([`STOP_NONE`] when
    /// no signal is installed).
    fn stop_mode(&self) -> u8 {
        self.cfg
            .stop
            .as_ref()
            .map(|s| s.load(Ordering::SeqCst))
            .unwrap_or(STOP_NONE)
    }

    /// Loads the restart checkpoint for attempt `restarts + 1`. The first
    /// attempt (and any attempt without a checkpoint file on disk) starts
    /// fresh.
    fn load_checkpoint(&self, restarts: u32) -> Result<Option<Checkpoint>, CampaignFault> {
        if restarts == 0 {
            return Ok(None);
        }
        let Some(path) = &self.cfg.checkpoint else { return Ok(None) };
        if !path.exists() {
            return Ok(None);
        }
        Checkpoint::load(path)
            .map(Some)
            .map_err(|e| CampaignFault::CheckpointUnreadable { message: e.to_string() })
    }

    /// Supervises one worker-thread attempt to its conclusion.
    fn supervise_attempt<B: Backend>(
        &mut self,
        tuner: Tuner<B>,
        started: Instant,
        attempt: u32,
    ) -> Verdict {
        // Every attempt gets fresh shared state: an abandoned (stalled)
        // worker from a previous attempt can wake up later and must not
        // be able to touch the current attempt's heartbeat or channel.
        let heartbeat = Arc::new(AtomicU64::new(started.elapsed().as_millis() as u64));
        let abandon = Arc::new(AtomicBool::new(false));
        let park = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel::<WorkerMsg>();
        let worker = {
            let heartbeat = Arc::clone(&heartbeat);
            let abandon = Arc::clone(&abandon);
            let park = Arc::clone(&park);
            let stop = self.cfg.stop.clone();
            let sim_deadline = self.cfg.sim_deadline_s;
            let ckpt = self.cfg.checkpoint.clone();
            let tx = tx.clone();
            move || {
                let mut tuner = tuner;
                let park_now = |tuner: &Tuner<B>, reason: ParkReason| -> WorkerMsg {
                    if let Some(path) = &ckpt {
                        if let Err(e) = tuner.park_to(path) {
                            return WorkerMsg::Failed(format!("park failed: {e}"));
                        }
                    }
                    WorkerMsg::Parked {
                        reason,
                        result: Box::new(tuner.result()),
                        mtl: Box::new(tuner.mtl().cloned()),
                    }
                };
                tuner.start();
                loop {
                    // An abandoned worker (the watchdog gave up on it)
                    // stops at the next step boundary without flushing
                    // anything — its successor owns the files now.
                    if abandon.load(Ordering::SeqCst) {
                        return;
                    }
                    match stop.as_ref().map(|s| s.load(Ordering::SeqCst)).unwrap_or(STOP_NONE) {
                        // Hard kill: exit without parking or flushing, as
                        // if the process died here. The supervisor sees
                        // the stop signal and reports Cancelled.
                        STOP_KILL => return,
                        STOP_PARK => {
                            let _ = tx.send(park_now(&tuner, ParkReason::Cancel));
                            return;
                        }
                        _ => {}
                    }
                    heartbeat.store(started.elapsed().as_millis() as u64, Ordering::SeqCst);
                    if sim_deadline.is_some_and(|d| tuner.stats().total_s() >= d) {
                        let _ = tx.send(park_now(&tuner, ParkReason::Sim));
                        return;
                    }
                    if park.load(Ordering::SeqCst) {
                        let _ = tx.send(park_now(&tuner, ParkReason::Wall));
                        return;
                    }
                    match tuner.step() {
                        CampaignStatus::Running => {}
                        CampaignStatus::Done => {
                            let _ = tx.send(WorkerMsg::Done(
                                Box::new(tuner.result()),
                                Box::new(tuner.mtl().cloned()),
                            ));
                            return;
                        }
                        CampaignStatus::Failed(reason) => {
                            let _ = tx.send(WorkerMsg::Failed(reason));
                            return;
                        }
                    }
                }
            }
        };
        let handle = std::thread::Builder::new()
            .name(format!("pruner-campaign-{attempt}"))
            .spawn({
                let tx = tx.clone();
                move || {
                    if let Err(payload) = catch_unwind(AssertUnwindSafe(worker)) {
                        let message = payload
                            .downcast_ref::<String>()
                            .cloned()
                            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                            .unwrap_or_else(|| "campaign panicked".to_string());
                        let _ = tx.send(WorkerMsg::Panicked(message));
                    }
                }
            })
            .expect("spawn campaign worker");
        drop(tx);

        let poll = Duration::from_secs_f64(self.cfg.poll_interval_s.max(0.001));
        // Once the wall deadline fires we ask the worker to park and give
        // it one watchdog interval to do so before abandoning it.
        let mut park_requested_at: Option<Instant> = None;
        loop {
            match rx.recv_timeout(poll) {
                Ok(WorkerMsg::Done(result, mtl)) => {
                    let _ = handle.join();
                    return Verdict::Finished(CampaignOutcome::Completed, Some(result), mtl);
                }
                Ok(WorkerMsg::Parked { reason, result, mtl }) => {
                    let _ = handle.join();
                    let outcome = match reason {
                        ParkReason::Sim => CampaignOutcome::SimDeadlineExceeded,
                        ParkReason::Wall => CampaignOutcome::WallDeadlineExceeded,
                        ParkReason::Cancel => CampaignOutcome::Cancelled,
                    };
                    return Verdict::Finished(outcome, Some(result), mtl);
                }
                Ok(WorkerMsg::Failed(message)) => {
                    let _ = handle.join();
                    return Verdict::Faulted(CampaignFault::Io { message });
                }
                Ok(WorkerMsg::Panicked(message)) => {
                    let _ = handle.join();
                    return Verdict::Faulted(CampaignFault::Panicked { message });
                }
                Err(RecvTimeoutError::Disconnected) => {
                    let _ = handle.join();
                    // A hard kill exits the worker without a message by
                    // design; anything else dying silently is a panic
                    // (catch_unwind should have reported it).
                    if self.stop_mode() == STOP_KILL {
                        return Verdict::Finished(CampaignOutcome::Cancelled, None, Box::new(None));
                    }
                    return Verdict::Faulted(CampaignFault::Panicked {
                        message: "campaign worker exited without reporting".to_string(),
                    });
                }
                Err(RecvTimeoutError::Timeout) => {
                    // A hard kill returns immediately: the worker is
                    // abandoned (it exits at its next step boundary) and
                    // nothing more is written.
                    if self.stop_mode() == STOP_KILL {
                        abandon.store(true, Ordering::SeqCst);
                        return Verdict::Finished(CampaignOutcome::Cancelled, None, Box::new(None));
                    }
                    let now_ms = started.elapsed().as_millis() as u64;
                    if let Some(requested) = park_requested_at {
                        // The park request itself is watchdogged: a
                        // worker too stalled to park gets abandoned.
                        if requested.elapsed().as_secs_f64() > self.cfg.watchdog_timeout_s {
                            abandon.store(true, Ordering::SeqCst);
                            return Verdict::Finished(
                                CampaignOutcome::WallDeadlineExceeded,
                                None,
                                Box::new(None),
                            );
                        }
                        continue;
                    }
                    if self
                        .cfg
                        .wall_deadline_s
                        .is_some_and(|d| started.elapsed().as_secs_f64() >= d)
                    {
                        park.store(true, Ordering::SeqCst);
                        park_requested_at = Some(Instant::now());
                        continue;
                    }
                    let idle_s =
                        (now_ms.saturating_sub(heartbeat.load(Ordering::SeqCst))) as f64 / 1e3;
                    if idle_s > self.cfg.watchdog_timeout_s {
                        // Stalled: abandon the worker (Rust cannot kill a
                        // thread; the flag stops it at its next step
                        // boundary, before any store-flushing step) and
                        // restart from the last checkpoint.
                        abandon.store(true, Ordering::SeqCst);
                        return Verdict::Faulted(CampaignFault::Stalled { idle_s });
                    }
                }
            }
        }
    }

    /// Emits the `supervisor.fault` record for one detected fault.
    fn emit_fault(&mut self, fault: &CampaignFault, attempt: u32) {
        if !self.recorder.enabled() {
            return;
        }
        let mut record = Record::new("supervisor.fault")
            .str("fault", fault.label())
            .u64("attempt", u64::from(attempt));
        record = match fault {
            CampaignFault::Stalled { idle_s } => record.host_f64("host_idle_s", *idle_s),
            CampaignFault::Panicked { message }
            | CampaignFault::Io { message }
            | CampaignFault::CheckpointUnreadable { message } => {
                record.str("message", message.clone())
            }
        };
        self.recorder.emit(record);
    }

    /// Emits the `supervisor.done` record closing one supervised run.
    fn emit_done(&mut self, outcome: CampaignOutcome, restarts: u32) {
        if self.recorder.enabled() {
            self.recorder.emit(
                Record::new("supervisor.done")
                    .str("outcome", outcome.label())
                    .u64("restarts", u64::from(restarts)),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuner::{ModelSetup, TunerConfig};
    use pruner_cost::ModelKind;
    use pruner_gpu::{GpuSpec, Simulator};
    use pruner_ir::Workload;

    fn quick_cfg() -> TunerConfig {
        TunerConfig { rounds: 4, ..TunerConfig::quick() }
    }

    fn build(ckpt: Option<Checkpoint>) -> std::io::Result<Tuner<Simulator>> {
        match ckpt {
            Some(ckpt) => Tuner::from_checkpoint_backend(ckpt),
            None => {
                let mut t = Tuner::new(
                    GpuSpec::t4(),
                    quick_cfg(),
                    ModelSetup::Fresh(ModelKind::Pacm),
                );
                t.add_task(Workload::matmul(1, 256, 256, 256), 1);
                Ok(t)
            }
        }
    }

    #[test]
    fn healthy_campaign_completes_byte_identical_to_unsupervised() {
        let golden = build(None).unwrap().run();
        let mut sup = Supervisor::new(SupervisorConfig::default());
        let run = sup.run(build);
        assert_eq!(run.outcome, CampaignOutcome::Completed);
        assert_eq!(run.restarts, 0);
        assert!(run.faults.is_empty());
        assert_eq!(
            serde_json::to_string(&run.result.unwrap()).unwrap(),
            serde_json::to_string(&golden).unwrap(),
            "supervision must only observe a healthy campaign"
        );
    }

    #[test]
    fn panicking_factory_quarantines_with_typed_faults() {
        let cfg = SupervisorConfig {
            max_restarts: 2,
            backoff_base_s: 0.001,
            watchdog_timeout_s: 5.0,
            ..SupervisorConfig::default()
        };
        let mut sup = Supervisor::new(cfg);
        let run = sup.run(|_| -> std::io::Result<Tuner<Simulator>> {
            Err(std::io::Error::other("no such checkpoint"))
        });
        assert_eq!(run.outcome, CampaignOutcome::Quarantined);
        assert_eq!(run.restarts, 2);
        assert_eq!(run.faults.len(), 3, "initial fault + one per restart");
        assert!(run
            .faults
            .iter()
            .all(|f| matches!(f, CampaignFault::CheckpointUnreadable { .. })));
        assert!(run.result.is_none());
    }

    #[test]
    fn backoff_schedule_is_exponential_jittered_and_seeded() {
        let cfg = SupervisorConfig {
            backoff_base_s: 1.0,
            backoff_mult: 2.0,
            backoff_jitter: 0.25,
            seed: 7,
            ..SupervisorConfig::default()
        };
        let sup = Supervisor::new(cfg.clone());
        for n in 1..=4u32 {
            let base = 2f64.powi(n as i32 - 1);
            let b = sup.backoff_s(n);
            assert!(b >= base * 0.75 && b <= base * 1.25, "restart {n}: {b}");
        }
        let again = Supervisor::new(cfg.clone());
        assert_eq!(sup.backoff_s(3), again.backoff_s(3), "same seed, same schedule");
        let other = Supervisor::new(SupervisorConfig { seed: 8, ..cfg.clone() });
        assert_ne!(sup.backoff_s(3), other.backoff_s(3), "different seed, different draw");
        let plain = Supervisor::new(SupervisorConfig { backoff_jitter: 0.0, ..cfg });
        assert_eq!(plain.backoff_s(3), 4.0, "zero jitter is the exact exponential");
    }

    #[test]
    fn fault_labels_and_outcome_labels_are_stable() {
        assert_eq!(CampaignFault::Stalled { idle_s: 1.0 }.label(), "stalled");
        assert_eq!(CampaignFault::Panicked { message: String::new() }.label(), "panicked");
        assert_eq!(CampaignFault::Io { message: String::new() }.label(), "io");
        assert_eq!(
            CampaignFault::CheckpointUnreadable { message: String::new() }.label(),
            "checkpoint_unreadable"
        );
        assert_eq!(CampaignOutcome::Completed.label(), "completed");
        assert_eq!(CampaignOutcome::WallDeadlineExceeded.label(), "wall_deadline");
        assert_eq!(CampaignOutcome::SimDeadlineExceeded.label(), "sim_deadline");
        assert_eq!(CampaignOutcome::Quarantined.label(), "quarantined");
        assert_eq!(CampaignOutcome::Cancelled.label(), "cancelled");
        let f = CampaignFault::Io { message: "disk full".into() };
        assert_eq!(f.to_string(), "io: disk full");
    }

    #[test]
    fn stop_park_cancels_with_resumable_checkpoint() {
        let dir = std::env::temp_dir()
            .join(format!("pruner-sup-stop-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("stop.ckpt.json");
        let stop = Arc::new(AtomicU8::new(STOP_PARK));
        let cfg = SupervisorConfig {
            checkpoint: Some(ckpt.clone()),
            stop: Some(Arc::clone(&stop)),
            ..SupervisorConfig::default()
        };
        let mut sup = Supervisor::new(cfg.clone());
        let run = sup.run(build);
        assert_eq!(run.outcome, CampaignOutcome::Cancelled);
        assert!(run.result.is_some(), "graceful cancel returns the parked snapshot");
        assert!(ckpt.exists(), "graceful cancel parks to the checkpoint");

        // Clearing the signal and re-running resumes from the park point
        // and finishes byte-identical to an uninterrupted campaign.
        stop.store(STOP_NONE, Ordering::SeqCst);
        let golden = build(None).unwrap().run();
        let resumed = Supervisor::new(cfg).run(build);
        assert_eq!(resumed.outcome, CampaignOutcome::Completed);
        assert_eq!(
            serde_json::to_string(&resumed.result.unwrap()).unwrap(),
            serde_json::to_string(&golden).unwrap(),
            "cancel + resume must be invisible in the result"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stop_kill_abandons_without_parking() {
        let dir = std::env::temp_dir()
            .join(format!("pruner-sup-kill-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("kill.ckpt.json");
        let cfg = SupervisorConfig {
            checkpoint: Some(ckpt.clone()),
            stop: Some(Arc::new(AtomicU8::new(STOP_KILL))),
            ..SupervisorConfig::default()
        };
        let run = Supervisor::new(cfg).run(build);
        assert_eq!(run.outcome, CampaignOutcome::Cancelled);
        assert!(run.result.is_none(), "a hard kill returns nothing");
        assert_eq!(run.restarts, 0, "a hard kill never restarts");
        assert!(!ckpt.exists(), "a hard kill must not park");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
