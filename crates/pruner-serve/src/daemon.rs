//! The resident daemon: Unix-socket accept loop, tenant state
//! directories, restart-resume, and request dispatch.
//!
//! # State layout
//!
//! ```text
//! <state_dir>/
//!   store.jsonl                      # one shared tuning-record store
//!   serve-trace.jsonl                # daemon trace (written on shutdown)
//!   tenants/<tenant>/<campaign>/
//!     manifest.json                  # the SubmitCampaign wire line, verbatim
//!     checkpoint.json                # campaign checkpoint (crash-safe)
//!     result.json                    # canonical TuningResult JSON, when done
//!     cancelled                      # marker: user-cancelled, do not resume
//!     quarantined                    # marker: faulted out, do not resume
//! ```
//!
//! A campaign directory with a manifest but neither `result.json` nor a
//! skip marker is **in flight**: the restart scan resubmits it, and the
//! worker resumes from `checkpoint.json` when one was parked (or replays
//! from scratch — either way the final result is byte-identical to an
//! uninterrupted run).

use crate::batcher::Batcher;
use crate::scheduler::{CampaignJob, JobOutcome, Scheduler};
use crate::wire::{Request, Response, WireError, SCHEMA_VERSION};
use pruner_cost::{CostModel, ModelKind, ModelSnapshot, Sample};
use pruner_gpu::{GpuSpec, Simulator};
use pruner_ir::Workload;
use pruner_store::{write_atomic_durable, SharedStore};
use pruner_trace::{Record, Recorder, Report, TraceHandle};
use pruner_tuner::{
    ModelSetup, Supervisor, SupervisorConfig, Tuner, TunerConfig, STOP_KILL, STOP_PARK,
};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The Unix socket path to listen on.
    pub socket: PathBuf,
    /// Root of the daemon's durable state (store, tenant directories).
    pub state_dir: PathBuf,
    /// Campaign worker threads (concurrent campaigns across all tenants).
    pub workers: usize,
    /// Max concurrent campaigns per tenant.
    pub per_tenant_budget: usize,
    /// Directory of pre-trained `ModelSnapshot` JSON files; a named model
    /// resolves to `<model_dir>/<name>.json` first, then to a built-in
    /// `ModelKind` seeded with 0.
    pub model_dir: Option<PathBuf>,
    /// `predict_batch` parallelism of the shared-model batchers.
    pub predict_threads: usize,
}

impl ServeConfig {
    /// A config with the default pool sizes (2 workers, budget 1, one
    /// predict thread, no model directory).
    pub fn new(socket: impl Into<PathBuf>, state_dir: impl Into<PathBuf>) -> ServeConfig {
        ServeConfig {
            socket: socket.into(),
            state_dir: state_dir.into(),
            workers: 2,
            per_tenant_budget: 1,
            model_dir: None,
            predict_threads: 1,
        }
    }
}

/// A failed durable write that the wire protocol has no place for (the
/// response the client gets is unchanged) leaves a `serve.io_error` record
/// naming the path and the error kind; the trace report counts them in its
/// serve section.
fn note_io_error(trace: &mut TraceHandle, path: &Path, result: io::Result<()>) {
    if let Err(e) = result {
        trace.emit(
            Record::new("serve.io_error")
                .str("path", path.display().to_string())
                .str("kind", format!("{:?}", e.kind()))
                .str("error", e.to_string()),
        );
    }
}

/// Everything the connection handlers share.
struct DaemonInner {
    cfg: ServeConfig,
    store: SharedStore,
    scheduler: Mutex<Option<Scheduler>>,
    models: Mutex<HashMap<String, Arc<Batcher>>>,
    trace: Mutex<TraceHandle>,
    seq: AtomicU64,
    resumed: AtomicU64,
    accepting: AtomicBool,
    shutdown: (Mutex<bool>, Condvar),
}

impl DaemonInner {
    fn campaign_dir(&self, tenant: &str, id: &str) -> PathBuf {
        self.cfg.state_dir.join("tenants").join(tenant).join(id)
    }

    fn emit(&self, record: Record) {
        self.trace.lock().unwrap_or_else(|p| p.into_inner()).emit(record);
    }

    fn trace_clone(&self) -> TraceHandle {
        self.trace.lock().unwrap_or_else(|p| p.into_inner()).clone()
    }

    /// Resolves a named model to its shared batcher, creating it (and
    /// loading the model) on first use.
    fn batcher(&self, name: &str) -> Result<Arc<Batcher>, String> {
        let mut models = self.models.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(batcher) = models.get(name) {
            return Ok(Arc::clone(batcher));
        }
        let model = load_named_model(self.cfg.model_dir.as_deref(), name)?;
        let batcher = Arc::new(Batcher::new(
            model,
            self.cfg.predict_threads,
            Some(Box::new(self.trace_clone())),
        ));
        models.insert(name.to_string(), Arc::clone(&batcher));
        Ok(batcher)
    }

    /// Registers and queues one campaign under `id`. The manifest must
    /// already be on disk (submission writes it before queuing; the
    /// restart scan found it there).
    fn queue_campaign(
        self: &Arc<Self>,
        id: &str,
        tenant: &str,
        spec: GpuSpec,
        workloads: Vec<(Workload, u64)>,
        config: TunerConfig,
        model: Option<String>,
    ) -> Result<(), String> {
        // Resolve the shared model up front so a bad name fails the
        // submission instead of the campaign.
        let campaign_model = match &model {
            Some(name) => Some(self.batcher(name)?.campaign_model()),
            None => None,
        };
        let dir = self.campaign_dir(tenant, id);
        let ckpt_path = dir.join("checkpoint.json");
        let result_path = dir.join("result.json");
        let quarantine_marker = dir.join("quarantined");
        let store = self.store.clone();
        let mut trace = self.trace_clone();
        let id_owned = id.to_string();
        let job: CampaignJob = Box::new(move |stop| {
            let sup_cfg = SupervisorConfig {
                checkpoint: Some(ckpt_path.clone()),
                stop: Some(stop),
                seed: config.seed,
                ..SupervisorConfig::default()
            };
            let factory_ckpt = ckpt_path.clone();
            let factory_store = store.clone();
            let factory_trace = trace.clone();
            let factory = move |ckpt| -> io::Result<Tuner<Simulator>> {
                let mut tuner = match ckpt {
                    Some(ckpt) => Tuner::from_checkpoint_backend(ckpt)?,
                    None if factory_ckpt.exists() => Tuner::resume(&factory_ckpt)?,
                    None => {
                        let setup = match &campaign_model {
                            Some(batched) => ModelSetup::Offline(Box::new(batched.clone())),
                            None => ModelSetup::Fresh(ModelKind::Pacm),
                        };
                        let mut tuner = Tuner::new(spec.clone(), config, setup);
                        for (workload, weight) in &workloads {
                            tuner.add_task(workload.clone(), *weight);
                        }
                        tuner
                    }
                };
                tuner.set_checkpoint_path(factory_ckpt.clone());
                // Shared store, record-only: replaying what *other*
                // tenants happen to have measured by now would make the
                // campaign's bytes depend on scheduling.
                tuner.set_shared_store(factory_store.clone(), false);
                tuner.set_recorder(Box::new(factory_trace.clone()));
                Ok(tuner)
            };
            let mut supervisor = Supervisor::new(sup_cfg);
            supervisor.set_recorder(Box::new(trace.clone()));
            let run = supervisor.run(factory);
            let outcome = run.outcome.label().to_string();
            let result = run.result.filter(|_| outcome == "completed");
            let best_latency_s = result.as_ref().map(|r| r.best_latency_s);
            let result_json =
                result.map(|result| serde_json::to_string(&result).expect("results serialize"));
            if let Some(json) = &result_json {
                // Written atomically: the restart scan treats its
                // presence as "this campaign is finished".
                let written = write_atomic_durable(&result_path, json, None);
                note_io_error(&mut trace, &result_path, written);
            } else if outcome == "quarantined" {
                let marked = write_atomic_durable(&quarantine_marker, "quarantined\n", None);
                note_io_error(&mut trace, &quarantine_marker, marked);
            }
            // Cadence flush: records land on disk at least once per
            // finished campaign, whatever the outcome.
            let flushed = store.flush();
            note_io_error(&mut trace, &store.with(|s| s.path().to_path_buf()), flushed);
            trace.emit(
                Record::new("serve.done").str("campaign", &id_owned).str("outcome", &outcome),
            );
            JobOutcome { outcome, best_latency_s, result_json }
        });
        let scheduler = self.scheduler.lock().unwrap_or_else(|p| p.into_inner());
        match scheduler.as_ref() {
            Some(scheduler) if scheduler.submit(tenant, id, job) => Ok(()),
            Some(_) => Err(format!("campaign id `{id}` already exists")),
            None => Err("daemon is shutting down".to_string()),
        }
    }

    /// Serves one request, producing exactly one response.
    fn dispatch(self: &Arc<Self>, request: Request) -> Response {
        match request {
            Request::SubmitCampaign { tenant, spec, workloads, config, model } => {
                if tenant.is_empty()
                    || !tenant.chars().all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
                {
                    return Response::Error {
                        message: format!(
                            "tenant `{tenant}` must be non-empty [a-zA-Z0-9_-] (it names a directory)"
                        ),
                    };
                }
                if workloads.is_empty() {
                    return Response::Error {
                        message: "a campaign needs at least one workload".to_string(),
                    };
                }
                let id = format!("{tenant}-{:04}", self.seq.fetch_add(1, Ordering::SeqCst));
                let dir = self.campaign_dir(&tenant, &id);
                if let Err(e) = std::fs::create_dir_all(&dir) {
                    return Response::Error { message: format!("cannot create {dir:?}: {e}") };
                }
                // The manifest is the wire request itself, so a restart
                // rebuilds the exact submission.
                let manifest = Request::SubmitCampaign {
                    tenant: tenant.clone(),
                    spec: spec.clone(),
                    workloads: workloads.clone(),
                    config,
                    model: model.clone(),
                }
                .to_line();
                if let Err(e) = write_atomic_durable(&dir.join("manifest.json"), &manifest, None) {
                    return Response::Error { message: format!("cannot write manifest: {e}") };
                }
                match self.queue_campaign(&id, &tenant, spec, workloads, config, model) {
                    Ok(()) => {
                        self.emit(
                            Record::new("serve.submit")
                                .str("tenant", &tenant)
                                .str("campaign", &id),
                        );
                        Response::Submitted { campaign: id }
                    }
                    Err(message) => Response::Error { message },
                }
            }
            Request::Status { campaign } => {
                let scheduler = self.scheduler.lock().unwrap_or_else(|p| p.into_inner());
                let status = scheduler.as_ref().and_then(|s| s.status(&campaign));
                match status {
                    Some((_tenant, state, best_latency_s, result)) => Response::Status {
                        campaign,
                        state: state.label().to_string(),
                        best_latency_s,
                        result,
                    },
                    None => Response::Error {
                        message: format!("unknown campaign `{campaign}`"),
                    },
                }
            }
            Request::Cancel { campaign } => {
                let (cancelled, tenant) = {
                    let scheduler = self.scheduler.lock().unwrap_or_else(|p| p.into_inner());
                    match scheduler.as_ref() {
                        Some(s) => {
                            let tenant = s.status(&campaign).map(|(tenant, ..)| tenant);
                            (s.cancel(&campaign), tenant)
                        }
                        None => (false, None),
                    }
                };
                if cancelled {
                    // Marker first, then the signal result: a cancelled
                    // campaign must not be resumed by the restart scan.
                    if let Some(tenant) = tenant {
                        let marker = self.campaign_dir(&tenant, &campaign).join("cancelled");
                        let written = write_atomic_durable(&marker, "cancelled\n", None);
                        note_io_error(&mut self.trace_clone(), &marker, written);
                    }
                    self.emit(Record::new("serve.cancel").str("campaign", &campaign));
                    Response::Cancelled { campaign }
                } else {
                    Response::Error {
                        message: format!("campaign `{campaign}` is not queued or running"),
                    }
                }
            }
            Request::PredictOnly { model, programs } => {
                if programs.is_empty() {
                    return Response::Scores { scores: Vec::new() };
                }
                let batcher = match self.batcher(&model) {
                    Ok(batcher) => batcher,
                    Err(message) => return Response::Error { message },
                };
                let samples: Vec<Sample> = programs
                    .iter()
                    .enumerate()
                    .map(|(i, prog)| Sample::unlabeled(prog, i))
                    .collect();
                Response::Scores { scores: batcher.predict(samples) }
            }
            Request::Shutdown => {
                self.request_shutdown();
                Response::ShuttingDown
            }
        }
    }

    fn request_shutdown(&self) {
        let (lock, cvar) = &self.shutdown;
        *lock.lock().unwrap_or_else(|p| p.into_inner()) = true;
        cvar.notify_all();
    }

    /// Reads request lines off one connection until EOF.
    fn serve_connection(self: Arc<Self>, stream: UnixStream) {
        let Ok(writer) = stream.try_clone() else { return };
        let mut writer = writer;
        let reader = BufReader::new(stream);
        for line in reader.lines() {
            let Ok(line) = line else { return };
            if line.trim().is_empty() {
                continue;
            }
            let response = match Request::parse_line(&line) {
                Ok(request) => self.dispatch(request),
                Err(WireError::Version { got }) => Response::Error {
                    message: format!(
                        "unsupported wire schema version {got} (this daemon speaks {SCHEMA_VERSION})"
                    ),
                },
                Err(e) => Response::Error { message: e.to_string() },
            };
            let mut reply = response.to_line();
            reply.push('\n');
            if writer.write_all(reply.as_bytes()).and_then(|()| writer.flush()).is_err() {
                return;
            }
        }
    }
}

/// A running daemon. Dropping the handle does **not** stop the daemon;
/// call [`Daemon::shutdown`], [`Daemon::wait_shutdown`] or
/// [`Daemon::kill`].
pub struct Daemon {
    inner: Arc<DaemonInner>,
    accept_thread: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Starts the daemon: opens the shared store, scans the state
    /// directory and resubmits every in-flight campaign, then binds the
    /// socket and starts accepting requests.
    pub fn start(cfg: ServeConfig) -> io::Result<Daemon> {
        std::fs::create_dir_all(cfg.state_dir.join("tenants"))?;
        let store = SharedStore::open(cfg.state_dir.join("store.jsonl"))?;
        let scheduler = Scheduler::new(cfg.workers, cfg.per_tenant_budget);
        let mut trace = TraceHandle::new();
        trace.emit(
            Record::new("serve.start")
                .u64("workers", cfg.workers as u64)
                .u64("schema", u64::from(SCHEMA_VERSION)),
        );
        let inner = Arc::new(DaemonInner {
            cfg,
            store,
            scheduler: Mutex::new(Some(scheduler)),
            models: Mutex::new(HashMap::new()),
            trace: Mutex::new(trace),
            seq: AtomicU64::new(1),
            resumed: AtomicU64::new(0),
            accepting: AtomicBool::new(true),
            shutdown: (Mutex::new(false), Condvar::new()),
        });
        inner.clone().resume_in_flight();

        // A previous daemon that crashed leaves a stale socket file
        // behind; a live one still answers on it. Probe before stealing.
        let socket = inner.cfg.socket.clone();
        if socket.exists() {
            if UnixStream::connect(&socket).is_ok() {
                return Err(io::Error::new(
                    io::ErrorKind::AddrInUse,
                    format!("a daemon is already serving on {}", socket.display()),
                ));
            }
            std::fs::remove_file(&socket)?;
        }
        if let Some(parent) = socket.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let listener = UnixListener::bind(&socket)?;
        listener.set_nonblocking(true)?;
        let accept_inner = Arc::clone(&inner);
        let accept_thread = std::thread::spawn(move || {
            while accept_inner.accepting.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let _ = stream.set_nonblocking(false);
                        let conn_inner = Arc::clone(&accept_inner);
                        std::thread::spawn(move || conn_inner.serve_connection(stream));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(15));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(15)),
                }
            }
        });
        Ok(Daemon { inner, accept_thread: Some(accept_thread) })
    }

    /// The socket path this daemon answers on.
    pub fn socket(&self) -> &Path {
        &self.inner.cfg.socket
    }

    /// How many in-flight campaigns the startup scan resubmitted.
    pub fn resumed(&self) -> u64 {
        self.inner.resumed.load(Ordering::SeqCst)
    }

    /// A point-in-time report over the daemon's trace (serve activity,
    /// campaign funnels, store counters).
    pub fn report(&self) -> Report {
        self.inner.trace.lock().unwrap_or_else(|p| p.into_inner()).report()
    }

    /// Blocks until every queued/running campaign has finished (tests and
    /// drain-before-shutdown).
    pub fn wait_idle(&self) {
        loop {
            let done = {
                let guard = self.inner.scheduler.lock().unwrap_or_else(|p| p.into_inner());
                match guard.as_ref() {
                    Some(scheduler) => scheduler.active().is_empty(),
                    None => true,
                }
            };
            if done {
                return;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Blocks until a wire `Shutdown` request arrives, then tears the
    /// daemon down gracefully. This is the body of `pruner-tune serve
    /// start`.
    pub fn wait_shutdown(self) -> io::Result<()> {
        {
            let (lock, cvar) = &self.inner.shutdown;
            let mut requested = lock.lock().unwrap_or_else(|p| p.into_inner());
            while !*requested {
                requested = cvar.wait(requested).unwrap_or_else(|p| p.into_inner());
            }
        }
        self.teardown(STOP_PARK)
    }

    /// Gracefully stops the daemon: stops accepting, parks every running
    /// campaign (their checkpoints resume on the next start), flushes the
    /// shared store and writes the trace.
    pub fn shutdown(self) -> io::Result<()> {
        self.teardown(STOP_PARK)
    }

    /// The in-process equivalent of `kill -9`: abandons running campaigns
    /// **without parking them** and skips the final store flush and trace
    /// write. State on disk is whatever the cadence writes left — exactly
    /// what the restart scan is built to pick up.
    pub fn kill(self) {
        let _ = self.teardown(STOP_KILL);
    }

    fn teardown(mut self, stop_mode: u8) -> io::Result<()> {
        self.inner.accepting.store(false, Ordering::SeqCst);
        if let Some(thread) = self.accept_thread.take() {
            let _ = thread.join();
        }
        let scheduler = {
            let mut guard = self.inner.scheduler.lock().unwrap_or_else(|p| p.into_inner());
            guard.take()
        };
        if let Some(scheduler) = scheduler {
            scheduler.stop(stop_mode);
        }
        // Stop the batcher workers before touching durable state.
        self.inner.models.lock().unwrap_or_else(|p| p.into_inner()).clear();
        let _ = std::fs::remove_file(&self.inner.cfg.socket);
        if stop_mode == STOP_KILL {
            return Ok(());
        }
        self.inner.store.flush()?;
        let trace = self.inner.trace.lock().unwrap_or_else(|p| p.into_inner());
        trace.write_atomic(&self.inner.cfg.state_dir.join("serve-trace.jsonl"))
    }
}

impl DaemonInner {
    /// Scans `tenants/*/*` and resubmits every campaign that has a
    /// manifest but no result and no skip marker. Also advances the id
    /// sequence past every id ever issued, so new submissions never
    /// collide with resumed ones.
    fn resume_in_flight(self: Arc<Self>) {
        let tenants_dir = self.cfg.state_dir.join("tenants");
        let mut resumed = 0u64;
        let mut max_seq = 0u64;
        let Ok(tenants) = std::fs::read_dir(&tenants_dir) else { return };
        for tenant_entry in tenants.flatten() {
            let tenant = tenant_entry.file_name().to_string_lossy().to_string();
            let Ok(campaigns) = std::fs::read_dir(tenant_entry.path()) else { continue };
            for campaign_entry in campaigns.flatten() {
                let id = campaign_entry.file_name().to_string_lossy().to_string();
                let dir = campaign_entry.path();
                if let Some(seq) = id.rsplit('-').next().and_then(|s| s.parse::<u64>().ok()) {
                    max_seq = max_seq.max(seq);
                }
                if dir.join("result.json").exists()
                    || dir.join("cancelled").exists()
                    || dir.join("quarantined").exists()
                {
                    continue;
                }
                let Ok(manifest) = std::fs::read_to_string(dir.join("manifest.json")) else {
                    continue;
                };
                let Ok(Request::SubmitCampaign { spec, workloads, config, model, .. }) =
                    Request::parse_line(&manifest)
                else {
                    continue;
                };
                if self
                    .queue_campaign(&id, &tenant, spec, workloads, config, model)
                    .is_ok()
                {
                    resumed += 1;
                }
            }
        }
        self.seq.store(max_seq + 1, Ordering::SeqCst);
        if resumed > 0 {
            self.emit(Record::new("serve.resume").u64("campaigns", resumed));
        }
        self.resumed.store(resumed, Ordering::SeqCst);
    }
}

/// Resolves a daemon model name: a `ModelSnapshot` JSON file in the
/// model directory wins, then a built-in [`ModelKind`] built with seed 0.
fn load_named_model(
    model_dir: Option<&Path>,
    name: &str,
) -> Result<Arc<dyn CostModel>, String> {
    if name.is_empty() || name.contains(['/', '\\', '.']) {
        return Err(format!("invalid model name `{name}`"));
    }
    if let Some(dir) = model_dir {
        let path = dir.join(format!("{name}.json"));
        if path.exists() {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read model {}: {e}", path.display()))?;
            let snapshot: ModelSnapshot = serde_json::from_str(&text)
                .map_err(|e| format!("cannot parse model {}: {e}", path.display()))?;
            return Ok(snapshot.into_shared());
        }
    }
    match ModelKind::by_name(name) {
        Some(kind) => Ok(Arc::from(kind.build(0))),
        None => Err(format!(
            "unknown model `{name}` (no snapshot file and not a built-in model kind)"
        )),
    }
}

// `CampaignState` is re-exported through the crate root for callers that
// match on `Scheduler::status`; keep the daemon module aware of it so the
// wire `state` strings and the enum labels cannot drift apart silently.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::CampaignState;

    #[test]
    fn wire_states_match_scheduler_labels() {
        for state in [
            CampaignState::Queued,
            CampaignState::Running,
            CampaignState::Done,
            CampaignState::Cancelled,
            CampaignState::Failed,
        ] {
            assert!(!state.label().is_empty());
        }
    }

    #[test]
    fn named_models_resolve_builtins_and_reject_traversal() {
        assert!(load_named_model(None, "pacm").is_ok());
        assert!(load_named_model(None, "ansor").is_ok());
        assert!(load_named_model(None, "no-such-model").is_err());
        assert!(load_named_model(None, "../etc/passwd").is_err());
        assert!(load_named_model(None, "").is_err());
    }

    #[test]
    fn snapshot_files_shadow_builtin_kinds() {
        let dir = std::env::temp_dir().join(format!("pruner-serve-models-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // A `random` snapshot stored under the name `pacm`: the file must
        // win over the built-in kind.
        let snapshot = ModelSnapshot::Random(pruner_cost::RandomModel::new(9));
        let json = serde_json::to_string(&snapshot).unwrap();
        std::fs::write(dir.join("pacm.json"), json).unwrap();
        let model = load_named_model(Some(&dir), "pacm").unwrap();
        assert_eq!(model.name(), "Random");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
