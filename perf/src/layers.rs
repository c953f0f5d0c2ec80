//! The one adapter between the benchmark and the system under test.
//!
//! Every call the benchmark makes into the `pruner` workspace goes through
//! a function in this file, and no other file of the benchmark names a
//! `pruner::` path. When a later change folds or renames public API
//! (ROADMAP item 2), this is the only benchmark file that has to follow.
//! The functions are grouped by the crate they reach, in the order a
//! tuning round passes through them; `perf/README.md` lists the public
//! items used. Only the non-`_traced`, arena-era entry points appear.

use crate::host::Obs;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, HashSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub use pruner::cost::{CostModel, PacmModel, Sample};
pub use pruner::gpu::{GpuSpec, Simulator};
pub use pruner::ir::{Network, Workload};
pub use pruner::psa::Psa;
pub use pruner::serve::{Batcher, Client, Daemon, Request, Response};
pub use pruner::sketch::{CandidateArena, GeneBuf, HardwareLimits, Program, WorkloadCtx};
pub use pruner::store::{Store, TuningRecord};
pub use pruner::trace::TraceHandle;
pub use pruner::tuner::{Checkpoint, Mtl, TimeModel, Tuner, TunerConfig, TuningResult};
pub use pruner::PrunerBuilder;

use pruner::cost::ModelKind;
use pruner::dataset::Dataset;
use pruner::nn::gemm;
use pruner::serve::ServeConfig;
use pruner::sketch::evolve;
use pruner::store::RecordOutcome;
use pruner::trace::{Record, Recorder};
use pruner::tuner::{CampaignOutcome, CampaignStatus, Supervisor, SupervisorConfig};
use pruner::Pruner;

// ------------------------------------------------------------------- facade

/// What a campaign tunes.
#[derive(Clone)]
pub enum Tasks {
    /// One operator.
    Op(Workload),
    /// Every subgraph of a network.
    Net(Network),
}

/// One campaign in the benchmark's terms; [`Campaign::builder`] turns it
/// into the facade's fluent builder.
#[derive(Clone)]
pub struct Campaign {
    /// Platform tuned for.
    pub spec: GpuSpec,
    /// The task(s).
    pub tasks: Tasks,
    /// Campaign parameters (seed included; `threads` is set per call).
    pub config: TunerConfig,
    /// Pre-trained Siamese model: runs the campaign with MTL.
    pub mtl: Option<PacmModel>,
    /// Cadence-checkpoint file.
    pub checkpoint: Option<PathBuf>,
    /// Record store and whether to warm-start from it.
    pub store: Option<(PathBuf, bool)>,
}

impl Campaign {
    /// A plain campaign: fresh PaCM, no checkpoint, store or recorder.
    pub fn plain(spec: GpuSpec, tasks: Tasks, config: TunerConfig) -> Campaign {
        Campaign {
            spec,
            tasks,
            config,
            mtl: None,
            checkpoint: None,
            store: None,
        }
    }

    /// `Pruner::builder(..)` with every field applied.
    pub fn builder(&self, threads: usize) -> PrunerBuilder {
        let mut b = Pruner::builder(self.spec.clone());
        b = match &self.tasks {
            Tasks::Op(workload) => b.workload(workload.clone()),
            Tasks::Net(net) => b.network(net),
        };
        b = b.config(self.config).threads(threads);
        if let Some(pretrained) = &self.mtl {
            b = b.with_mtl(pretrained.clone());
        }
        if let Some(path) = &self.checkpoint {
            b = b.checkpoint(path);
        }
        if let Some((path, warm)) = &self.store {
            b = b.store(path).warm_start(*warm);
        }
        b
    }
}

/// `PrunerBuilder::build` then `Pruner::tune`: the monolithic path.
pub fn tune(builder: PrunerBuilder) -> TuningResult {
    builder.build().tune()
}

/// `PrunerBuilder::build` then `Pruner::into_tuner`.
pub fn build_tuner(builder: PrunerBuilder) -> Tuner {
    builder.build().into_tuner()
}

/// `PrunerBuilder::build` alone (timed by `facade.build_ms`).
pub fn build_only(builder: PrunerBuilder) -> usize {
    builder.build().into_tuner().num_tasks()
}

/// `Tuner::num_tasks`.
pub fn num_tasks(tuner: &Tuner) -> usize {
    tuner.num_tasks()
}

/// `Tuner::run` on an already-built tuner (the monolithic path of a
/// resumed campaign).
pub fn run(tuner: &mut Tuner) -> TuningResult {
    tuner.run()
}

/// `TunerConfig::default`.
pub fn default_config() -> TunerConfig {
    TunerConfig::default()
}

/// `Pruner::resume`: checkpoint load plus tuner reconstruction.
pub fn resume(checkpoint: &Path) -> io::Result<Tuner> {
    Ok(Pruner::resume(checkpoint)?.into_tuner())
}

/// `Store::open` + `Tuner::set_store` on an already-built tuner (what a
/// resumed campaign needs: the checkpoint does not carry the store).
pub fn attach_store(tuner: &mut Tuner, path: &Path, warm_start: bool) -> io::Result<()> {
    tuner.set_store(Store::open(path)?, warm_start);
    Ok(())
}

/// `SearchStats::total_s`: the simulated search-time ledger.
pub fn sim_total_s(result: &TuningResult) -> f64 {
    result.stats.total_s()
}

/// Best-so-far latency at every point of `TuningCurve::points`.
pub fn curve_latencies(result: &TuningResult) -> Vec<f64> {
    result
        .curve
        .points()
        .iter()
        .map(|p| p.best_latency_s)
        .collect()
}

/// The canonical result bytes every cross-path check compares.
pub fn result_bytes(result: &TuningResult) -> String {
    serde_json::to_string(result).expect("results serialize")
}

/// Parses result bytes back (daemon `Status` carries the result as text).
pub fn parse_result(text: &str) -> Option<TuningResult> {
    serde_json::from_str(text).ok()
}

// -------------------------------------------------------------------- tuner

/// Drives a campaign with `Tuner::start` + `Tuner::step`, handing every
/// step to `obs` as one span labelled by `CampaignPhase::label` and every
/// finished training step as a round boundary. Spans are contiguous: the
/// end of one step is the start of the next, so they sum to the stepped
/// wall.
pub fn drive(tuner: &mut Tuner, obs: &mut Obs) -> Result<TuningResult, String> {
    tuner.start();
    let mut t0 = Instant::now();
    loop {
        let label = tuner.phase().label();
        let status = tuner.step();
        let t1 = Instant::now();
        obs.span(label, t0, t1);
        match label {
            "init" => obs.rounds_begin(t1),
            "training" => obs.round_boundary(t1),
            _ => {}
        }
        t0 = t1;
        match status {
            CampaignStatus::Running => {}
            CampaignStatus::Done => return Ok(tuner.result()),
            CampaignStatus::Failed(reason) => return Err(reason),
        }
    }
}

/// `Supervisor::run` around `campaign` with a cadence checkpoint and a
/// recorder; the factory re-attaches what a checkpoint does not carry.
/// `Ok` only for a campaign that completed.
pub fn supervise(
    campaign: &Campaign,
    threads: usize,
    recorder: &RoundClock,
) -> Result<TuningResult, String> {
    let checkpoint = campaign.checkpoint.clone();
    let mut supervisor = Supervisor::new(SupervisorConfig {
        checkpoint: checkpoint.clone(),
        ..Default::default()
    });
    let run = supervisor.run(|restart: Option<Checkpoint>| match restart {
        None => Ok(build_tuner(with_recorder(
            campaign.builder(threads),
            recorder,
        ))),
        Some(ckpt) => {
            let mut tuner = Tuner::from_checkpoint(ckpt);
            if let Some(path) = &checkpoint {
                tuner.set_checkpoint_path(path);
            }
            if let Some((path, warm)) = &campaign.store {
                tuner.set_store(Store::open(path)?, *warm);
            }
            tuner.set_recorder(Box::new(recorder.clone()));
            Ok(tuner)
        }
    });
    match (run.outcome, run.result) {
        (CampaignOutcome::Completed, Some(result)) if run.faults.is_empty() => Ok(result),
        (outcome, _) => Err(format!(
            "supervised campaign ended `{}` after {} fault(s)",
            outcome.label(),
            run.faults.len()
        )),
    }
}

/// `Tuner::park`: the in-memory checkpoint of a live campaign.
pub fn park(tuner: &Tuner) -> Checkpoint {
    tuner.park()
}

/// `Checkpoint::save` (serialise + tmp + fsync + rename + dir fsync).
pub fn checkpoint_save(ckpt: &Checkpoint, path: &Path) -> io::Result<()> {
    ckpt.save(path)
}

/// `Checkpoint::load` + `Tuner::from_checkpoint`.
pub fn checkpoint_load(path: &Path) -> io::Result<Tuner> {
    Ok(Tuner::from_checkpoint(Checkpoint::load(path)?))
}

/// `Mtl::new` around a pre-trained model (paper momentum).
pub fn mtl_new(pretrained: PacmModel) -> Mtl {
    Mtl::with_paper_momentum(pretrained)
}

/// `Mtl::round`.
pub fn mtl_round(mtl: &mut Mtl, samples: &[Sample], epochs: usize, threads: usize) -> PacmModel {
    mtl.round(samples, epochs, threads)
}

/// `Dataset::generate` + `pretrain_pacm`: the offline half of MTL.
pub fn pretrain(
    spec: &GpuSpec,
    networks: &[Network],
    programs_per_subgraph: usize,
    epochs: usize,
    seed: u64,
) -> PacmModel {
    let dataset = Dataset::generate(spec, networks, programs_per_subgraph, seed);
    pruner::tuner::pretrain_pacm(&dataset.to_samples(), epochs, seed)
}

/// The simulated cost constants the sanity ratios divide by.
pub fn time_model() -> TimeModel {
    TimeModel::default()
}

// -------------------------------------------------------------------- trace

/// A `Recorder` that forwards everything to a [`TraceHandle`] and stamps
/// the host clock when the `warmup` span and each `round` span end — how
/// the benchmark sees round boundaries of a campaign it does not step
/// itself (`Supervisor::run`).
#[derive(Clone, Default)]
pub struct RoundClock {
    trace: TraceHandle,
    stamps: Arc<Mutex<Vec<Instant>>>,
}

impl RoundClock {
    /// A clock around a fresh trace buffer.
    pub fn new() -> RoundClock {
        RoundClock::default()
    }

    /// The trace buffer behind the clock.
    pub fn trace(&self) -> &TraceHandle {
        &self.trace
    }

    /// Replays the stamps into `obs` as round boundaries.
    pub fn drain_into(&self, obs: &mut Obs) {
        let stamps = std::mem::take(&mut *self.stamps.lock().expect("stamp lock"));
        let mut stamps = stamps.into_iter();
        if let Some(first) = stamps.next() {
            obs.rounds_begin(first);
        }
        for stamp in stamps {
            obs.round_boundary(stamp);
        }
    }
}

impl Recorder for RoundClock {
    fn enabled(&self) -> bool {
        true
    }
    fn span_begin(&mut self, name: &'static str) {
        self.trace.span_begin(name);
    }
    fn span_end(&mut self, name: &'static str) -> f64 {
        let elapsed = self.trace.span_end(name);
        if name == "round" || name == "warmup" {
            self.stamps.lock().expect("stamp lock").push(Instant::now());
        }
        elapsed
    }
    fn counter(&mut self, name: &'static str, delta: u64) {
        self.trace.counter(name, delta);
    }
    fn gauge(&mut self, name: &'static str, value: f64) {
        self.trace.gauge(name, value);
    }
    fn emit(&mut self, record: Record) {
        self.trace.emit(record);
    }
    fn fork(&self) -> Option<Box<dyn Recorder>> {
        Some(Box::new(self.clone()))
    }
}

/// `TraceHandle::write_atomic`.
pub fn trace_write(trace: &TraceHandle, path: &Path) -> io::Result<()> {
    trace.write_atomic(path)
}

/// `TraceHandle::len`: event records collected.
pub fn trace_events(trace: &TraceHandle) -> usize {
    trace.len()
}

/// A builder with a [`RoundClock`] recorder installed.
pub fn with_recorder(builder: PrunerBuilder, clock: &RoundClock) -> PrunerBuilder {
    builder.recorder(Box::new(clock.clone()))
}

/// A builder with a plain `TraceHandle` recorder installed.
pub fn with_trace(builder: PrunerBuilder, trace: &TraceHandle) -> PrunerBuilder {
    builder.recorder(Box::new(trace.clone()))
}

// ------------------------------------------------------------------- sketch

/// `WorkloadCtx::new`.
pub fn workload_ctx(workload: &Workload) -> Arc<WorkloadCtx> {
    Arc::new(WorkloadCtx::new(workload))
}

/// `WorkloadCtx::sample_genes` × `n`: stand-ins for a round's elite pool.
pub fn sample_elites(
    ctx: &WorkloadCtx,
    limits: &HardwareLimits,
    n: usize,
    seed: u64,
) -> Vec<GeneBuf> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n).map(|_| ctx.sample_genes(limits, &mut rng)).collect()
}

/// One round's sample pool the way the tuner builds it:
/// `evolve::next_generation_arena_par` for ¾ of the pool plus
/// `evolve::init_arena_par` for the fresh-blood quarter.
pub fn generate(
    ctx: &Arc<WorkloadCtx>,
    elites: &[GeneBuf],
    pool: usize,
    limits: &HardwareLimits,
    seed: u64,
    round: u64,
    threads: usize,
) -> CandidateArena {
    let mut arena =
        evolve::next_generation_arena_par(ctx, elites, pool * 3 / 4, limits, seed, round, threads);
    let fresh = pool - arena.len();
    arena.append(&evolve::init_arena_par(
        ctx,
        fresh,
        limits,
        seed ^ 0xA076_1D64_78BD_642F,
        round,
        threads,
    ));
    arena
}

/// `CandidateArena::len`.
pub fn arena_len(arena: &CandidateArena) -> usize {
    arena.len()
}

/// `CandidateArena::retain_with` keeping first sightings; returns the
/// survivors.
pub fn dedup(arena: &mut CandidateArena) -> usize {
    let mut seen = HashSet::new();
    arena.retain_with(|_, fp| seen.insert(fp));
    arena.len()
}

/// `CandidateArena::ensure_stats`.
pub fn ensure_stats(arena: &mut CandidateArena) {
    arena.ensure_stats();
}

/// `Program::sample` × `n`.
pub fn sample_programs(
    workload: &Workload,
    limits: &HardwareLimits,
    n: usize,
    seed: u64,
) -> Vec<Program> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| Program::sample(workload, limits, &mut rng))
        .collect()
}

// ---------------------------------------------------------------------- psa

/// `Psa::new`.
pub fn psa_new(spec: &GpuSpec) -> Psa {
    Psa::new(spec.clone())
}

/// `Psa::prune_arena`.
pub fn psa_prune(psa: &Psa, arena: &CandidateArena, keep: usize, threads: usize) -> Vec<usize> {
    psa.prune_arena(arena, keep, threads)
}

// ----------------------------------------------------------- features / cost

/// `Sample::from_arena` over a shortlist.
pub fn featurize(arena: &CandidateArena, picks: &[usize]) -> Vec<Sample> {
    picks
        .iter()
        .map(|&i| Sample::from_arena(arena, i, 0))
        .collect()
}

/// `Sample::unlabeled` per program — what the daemon does to a
/// `PredictOnly` batch.
pub fn featurize_programs(programs: &[Program]) -> Vec<Sample> {
    programs
        .iter()
        .enumerate()
        .map(|(i, p)| Sample::unlabeled(p, i))
        .collect()
}

/// `Sample::labeled` with the simulator's latency as the label.
pub fn label(programs: &[Program], sim: &Simulator) -> Vec<Sample> {
    programs
        .iter()
        .map(|p| Sample::labeled(p, sim.latency(p), 0))
        .collect()
}

/// A fresh PaCM, as a campaign builds it.
pub fn pacm(seed: u64) -> PacmModel {
    PacmModel::new(seed)
}

/// The daemon's built-in named model `pacm` (`ModelKind::build(0)`).
pub fn named_pacm() -> Arc<dyn CostModel> {
    Arc::from(ModelKind::Pacm.build(0))
}

/// `CostModel::predict_batch`.
pub fn predict(model: &dyn CostModel, samples: &[Sample], threads: usize) -> Vec<f32> {
    model.predict_batch(samples, threads)
}

/// `CostModel::fit_batch`.
pub fn fit(model: &mut dyn CostModel, samples: &[Sample], epochs: usize, threads: usize) -> f64 {
    model.fit_batch(samples, epochs, threads)
}

// ----------------------------------------------------------------------- nn

/// The three GEMM layouts of the autodiff tape.
#[derive(Clone, Copy)]
pub enum GemmKind {
    /// `matmul_into`: `C[m×n] = A[m×k]·B[k×n]`.
    Nn,
    /// `matmul_nt_into`: `C[m×n] = A[m×k]·B[n×k]ᵀ`.
    Nt,
    /// `matmul_tn_into`: `C[m×n] = A[k×m]ᵀ·B[k×n]`.
    Tn,
}

/// One GEMM of `m·k·n` multiply-adds (`dims = (m, k, n)`) through the
/// public dispatcher.
pub fn gemm(
    kind: GemmKind,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    (m, k, n): (usize, usize, usize),
    threads: usize,
) {
    match kind {
        GemmKind::Nn => gemm::matmul_into(a, b, out, m, k, n, threads),
        GemmKind::Nt => gemm::matmul_nt_into(a, b, out, m, k, n, threads),
        GemmKind::Tn => gemm::matmul_tn_into(a, b, out, k, m, n, threads),
    }
}

// ---------------------------------------------------------------------- gpu

/// `GpuSpec::t4`.
pub fn spec_t4() -> GpuSpec {
    GpuSpec::t4()
}

/// `GpuSpec::a100`.
pub fn spec_a100() -> GpuSpec {
    GpuSpec::a100()
}

/// `GpuSpec::k80`.
pub fn spec_k80() -> GpuSpec {
    GpuSpec::k80()
}

/// `GpuSpec::limits`.
pub fn limits(spec: &GpuSpec) -> HardwareLimits {
    spec.limits()
}

/// `Simulator::new`.
pub fn simulator(spec: &GpuSpec) -> Simulator {
    Simulator::new(spec.clone())
}

/// `Simulator::latency`.
pub fn sim_latency(sim: &Simulator, program: &Program) -> f64 {
    sim.latency(program)
}

// -------------------------------------------------------------------- store

/// `n` distinct simulator records for shapes no benchmark campaign tunes
/// ("foreign" records: they cost the store layer work but never replay).
pub fn foreign_records(spec: &GpuSpec, n: usize, seed: u64) -> Vec<TuningRecord> {
    let shapes = [
        Workload::matmul(1, 384, 384, 384),
        Workload::matmul(1, 768, 768, 768),
        Workload::matmul(4, 128, 128, 256),
        Workload::conv2d(1, 64, 56, 56, 64, 3, 1, 1),
    ];
    let limits = spec.limits();
    let sim = Simulator::new(spec.clone());
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let workload = &shapes[rng.gen_range(0..shapes.len())];
        let program = Program::sample(workload, &limits, &mut rng);
        if !seen.insert(program.dedup_key()) {
            continue;
        }
        let latency_s = sim.latency(&program);
        out.push(TuningRecord::new(
            spec,
            program,
            RecordOutcome::Success {
                latency_s,
                variance: 0.0,
            },
        ));
    }
    out
}

/// `Store::open`.
pub fn store_open(path: &Path) -> io::Result<Store> {
    Store::open(path)
}

/// `Store::append` per record; returns how many were fresh.
pub fn store_append(store: &mut Store, records: &[TuningRecord]) -> usize {
    records
        .iter()
        .filter(|r| store.append((*r).clone()))
        .count()
}

/// `Store::flush`.
pub fn store_flush(store: &Store) -> io::Result<()> {
    store.flush()
}

/// `Store::len`.
pub fn store_len(store: &Store) -> usize {
    store.len()
}

// --------------------------------------------------------------------- json

/// `serde_json::parse_content` on a document; returns the top-level
/// field count so the parse cannot be optimised away.
pub fn json_parse(text: &str) -> usize {
    serde_json::parse_content(text)
        .ok()
        .and_then(|c| c.as_map().map(|m| m.len()))
        .unwrap_or(0)
}

/// `serde_json::to_string` on a checkpoint.
pub fn json_write(ckpt: &Checkpoint) -> String {
    serde_json::to_string(ckpt).expect("checkpoints serialize")
}

/// Reads a run's result line back (`serde_json::parse_content`):
/// `(correct, attempted, failed, metric values by name)`. The suite modes
/// parse their children's output with the system's own JSON reader.
pub fn parse_result_line(line: &str) -> Option<(bool, u64, u64, BTreeMap<String, f64>)> {
    let parsed = serde_json::parse_content(line).ok()?;
    let map = parsed.as_map()?;
    let get = |key: &str| serde::content_get(map, key);
    let metrics = get("metrics")?
        .as_map()?
        .iter()
        .filter_map(|(name, fields)| {
            let value = serde::content_get(fields.as_map()?, "value")?.as_f64()?;
            Some((name.clone(), value))
        })
        .collect();
    Some((
        matches!(get("correct")?, serde::Content::Bool(true)),
        get("attempted")?.as_u64()?,
        get("failed")?.as_u64()?,
        metrics,
    ))
}

// -------------------------------------------------------------------- serve

/// `Daemon::start` at the benchmark's fixed shape: one campaign worker,
/// one predict thread.
pub fn daemon_start(socket: &Path, state_dir: &Path) -> io::Result<Daemon> {
    let mut cfg = ServeConfig::new(socket, state_dir);
    cfg.workers = 1;
    cfg.predict_threads = 1;
    Daemon::start(cfg)
}

/// `Daemon::shutdown`.
pub fn daemon_shutdown(daemon: Daemon) -> io::Result<()> {
    daemon.shutdown()
}

/// `Client::connect_with_retry`.
pub fn client_connect(socket: &Path) -> io::Result<Client> {
    Client::connect_with_retry(socket, std::time::Duration::from_secs(5))
}

/// `Client::call`.
pub fn client_call(client: &mut Client, request: &Request) -> io::Result<Response> {
    client.call(request)
}

/// A `SubmitCampaign` request for one operator, fresh in-campaign model.
pub fn submit_request(
    tenant: &str,
    spec: &GpuSpec,
    workload: &Workload,
    config: TunerConfig,
) -> Request {
    Request::SubmitCampaign {
        tenant: tenant.to_string(),
        spec: spec.clone(),
        workloads: vec![(workload.clone(), 1)],
        config,
        model: None,
    }
}

/// A `Status` request.
pub fn status_request(campaign: &str) -> Request {
    Request::Status {
        campaign: campaign.to_string(),
    }
}

/// A `PredictOnly` request against the built-in `pacm` model.
pub fn predict_request(programs: &[Program]) -> Request {
    Request::PredictOnly {
        model: "pacm".to_string(),
        programs: programs.to_vec(),
    }
}

/// `Request::to_line`.
pub fn wire_encode(request: &Request) -> String {
    request.to_line()
}

/// `Request::parse_line`; `true` when the line parsed.
pub fn wire_parse(line: &str) -> bool {
    Request::parse_line(line).is_ok()
}

/// `Batcher::new` without a recorder.
pub fn batcher_new(model: Arc<dyn CostModel>, threads: usize) -> Batcher {
    Batcher::new(model, threads, None)
}

/// `Batcher::predict`.
pub fn batcher_predict(batcher: &Batcher, samples: Vec<Sample>) -> Vec<f32> {
    batcher.predict(samples)
}

/// `Batcher::stats`: `(batches, requests)`.
pub fn batcher_stats(batcher: &Batcher) -> (u64, u64) {
    let (batches, requests, _samples) = batcher.stats();
    (batches, requests)
}

// ----------------------------------------------------------------- ir / zoo

/// `Workload::matmul`.
pub fn matmul(batch: u64, m: u64, n: u64, k: u64) -> Workload {
    Workload::matmul(batch, m, n, k)
}

/// `zoo::mobilenet_v2(1)`: 37 conv / depthwise / element-wise tasks.
pub fn mobilenet_v2() -> Network {
    pruner::ir::zoo::mobilenet_v2(1)
}

/// `zoo::bert_tiny(1, 64)`: the small pre-training corpus.
pub fn bert_tiny() -> Network {
    pruner::ir::zoo::bert_tiny(1, 64)
}

/// How many tuning tasks `tasks` is.
pub fn task_count(tasks: &Tasks) -> usize {
    match tasks {
        Tasks::Op(_) => 1,
        Tasks::Net(net) => net.num_tasks(),
    }
}

/// The operator the layer replay runs at: the operator itself, or the
/// network task with the most weighted FLOPs.
pub fn first_task(tasks: &Tasks) -> Workload {
    match tasks {
        Tasks::Op(workload) => workload.clone(),
        Tasks::Net(net) => net
            .subgraphs()
            .iter()
            .max_by(|a, b| a.weighted_flops().total_cmp(&b.weighted_flops()))
            .map(|sg| sg.workload.clone())
            .expect("networks have tasks"),
    }
}
