//! Per-task tuning state: candidate proposal and measurement bookkeeping.

use crate::measure::{Measurer, PipelineStage};
use pruner_cost::{CostModel, Sample};
use pruner_ir::Workload;
use pruner_par::fan_out_mut;
use pruner_psa::Psa;
use pruner_sketch::{evolve, CandidateArena, GeneBuf, HardwareLimits, Program, WorkloadCtx};
use pruner_trace::Recorder;
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

/// Number of elite (best measured) programs evolution breeds from.
const ELITE_POOL: usize = 16;

/// One round's proposal knobs (Algorithm 1 parameters plus the worker
/// fan-out configuration).
///
/// `seed` and `round` feed the per-candidate RNG derivation in
/// [`pruner_sketch::evolve::derive_item_seed`]; `threads` only controls how
/// the work is scheduled — every proposal is bit-identical at any thread
/// count.
#[derive(Debug, Clone, Copy)]
pub struct ProposeParams {
    /// Search-space size per round (`space_size` of Algorithm 1).
    pub space_size: usize,
    /// Raw sample-pool size drawn before drafting.
    pub pool_size: usize,
    /// ε share of the space retained at random from the unpruned pool.
    pub epsilon: f64,
    /// Number of programs to propose for measurement.
    pub n: usize,
    /// Campaign seed (mixed with the task id per candidate).
    pub seed: u64,
    /// Global tuning-round index.
    pub round: u64,
    /// Worker threads for generation, PSA drafting and inference.
    pub threads: usize,
}

/// Candidate-funnel counts of one proposal round: how many programs each
/// draft-then-verify stage produced. All counts are deterministic (same at
/// any thread count, traced or not); they feed the per-round `round`
/// trace record and the end-of-campaign report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct FunnelCounts {
    /// Programs bred by the GA fan-out (offspring + fresh samples).
    pub generated: usize,
    /// Programs left after dropping duplicates and already-measured keys.
    pub deduped: usize,
    /// Programs PSA kept in the target space (`None` for the no-PSA
    /// baseline, where the whole pool goes to the model).
    pub psa_survivors: Option<usize>,
    /// Programs re-admitted by ε-retention from the unpruned pool.
    pub eps_extras: usize,
    /// Programs scored by the cost model.
    pub predicted: usize,
    /// Programs proposed for measurement (top `n` after ranking).
    pub proposed: usize,
}

/// Tuning state of one subgraph.
pub struct TaskTuner {
    /// The workload being tuned.
    pub workload: Workload,
    /// Stable task identifier (grouping key for the cost model).
    pub task_id: usize,
    /// Occurrence weight in the parent network.
    pub weight: u64,
    /// Shared schedule-space context for the arena hot path.
    ctx: Arc<WorkloadCtx>,
    measured: Vec<(Program, f64)>,
    /// The labeled training sample of each `measured` entry, featurized
    /// once when the measurement is recorded (live, from a checkpoint or
    /// from a store replay) — positionally aligned with `measured`.
    samples: Vec<Sample>,
    /// Schedule fingerprints of every known program (measured or
    /// quarantined) — the hot-path dedup set. The string `dedup_key` form
    /// survives only in the on-disk store/checkpoint formats.
    measured_fps: HashSet<u64>,
    /// Quarantined programs: `dedup_key → fingerprint` (fingerprint 0 when
    /// restored from a checkpoint that predates fingerprints).
    quarantined: BTreeMap<String, u64>,
    best: Option<(Program, f64)>,
    rounds_since_improvement: usize,
}

impl TaskTuner {
    /// Creates the tuning state for one workload.
    pub fn new(workload: Workload, task_id: usize, weight: u64) -> TaskTuner {
        let ctx = Arc::new(WorkloadCtx::new(&workload));
        TaskTuner {
            workload,
            task_id,
            weight,
            ctx,
            measured: Vec::new(),
            samples: Vec::new(),
            measured_fps: HashSet::new(),
            quarantined: BTreeMap::new(),
            best: None,
            rounds_since_improvement: 0,
        }
    }

    /// Rebuilds the tuning state from checkpointed measurements. The
    /// incumbent is re-derived by replaying the measurement order, so a
    /// restored task is indistinguishable from one that never stopped.
    ///
    /// `quarantined_fps` pairs with `quarantined` by position; checkpoints
    /// written before fingerprints existed restore with empty fps (those
    /// entries can no longer block re-proposal, only re-recording).
    pub(crate) fn from_checkpoint(
        workload: Workload,
        task_id: usize,
        weight: u64,
        measured: Vec<(Program, f64)>,
        quarantined: Vec<String>,
        quarantined_fps: Vec<u64>,
        rounds_since_improvement: usize,
    ) -> TaskTuner {
        let mut task = TaskTuner::new(workload, task_id, weight);
        for (prog, latency) in measured {
            task.record(prog, latency);
        }
        for (i, key) in quarantined.into_iter().enumerate() {
            let fp = quarantined_fps.get(i).copied().unwrap_or(0);
            if fp != 0 {
                task.measured_fps.insert(fp);
            }
            task.quarantined.insert(key, fp);
        }
        task.rounds_since_improvement = rounds_since_improvement;
        task
    }

    /// The measurement log, in measurement order (for checkpointing).
    pub(crate) fn measured_log(&self) -> &[(Program, f64)] {
        &self.measured
    }

    /// Quarantined program keys in deterministic (sorted) order.
    pub(crate) fn quarantined_keys(&self) -> Vec<String> {
        self.quarantined.keys().cloned().collect()
    }

    /// Quarantined program fingerprints, positionally aligned with
    /// [`TaskTuner::quarantined_keys`].
    pub(crate) fn quarantined_fps(&self) -> Vec<u64> {
        self.quarantined.values().copied().collect()
    }

    /// Best measured latency so far (∞ before the first round).
    pub(crate) fn best_latency(&self) -> f64 {
        self.best.as_ref().map(|(_, l)| *l).unwrap_or(f64::INFINITY)
    }

    /// Best measured program so far.
    pub(crate) fn best_program(&self) -> Option<&Program> {
        self.best.as_ref().map(|(p, _)| p)
    }

    /// Number of measurements taken on this task.
    #[cfg(test)]
    pub(crate) fn num_measured(&self) -> usize {
        self.measured.len()
    }

    /// Rounds elapsed since the task last improved (scheduler signal).
    pub(crate) fn rounds_since_improvement(&self) -> usize {
        self.rounds_since_improvement
    }

    /// All labeled samples of this task, in measurement order (for
    /// cost-model training).
    pub(crate) fn labeled_samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Proposes the next batch of programs to measure (one round of
    /// Algorithm 1) and reports the round's [`FunnelCounts`].
    ///
    /// A fresh sample pool of `pool_size` candidates is generated each
    /// round — evolved from the measured elites plus fresh random samples
    /// (pure random on the first round). With `psa` given, the pool is
    /// **drafted**: PSA keeps the `space_size·(1−ε)` lowest-estimate
    /// candidates and an `ε` share is retained from the unpruned pool so
    /// solutions beyond the constrained space stay reachable; only the
    /// shortlist is scored by the (expensive) cost model. Without `psa`
    /// (the Ansor baseline) the model scores the entire pool, as Ansor's
    /// model-guided evolutionary search does. Returns the top `n`
    /// unmeasured programs; charges generation, PSA and inference time on
    /// `measurer`.
    ///
    /// The pool lives in `arena`, which the caller lends and should reuse
    /// from round to round and task to task (any arena will do, a
    /// `CandidateArena::default()` included): it is reset to this task's
    /// context, and generation, dedup and the deferred stats fill all write
    /// its columns in place, so a steady-state round allocates nothing that
    /// scales with the pool.
    ///
    /// Generation, the stats fill, PSA estimation, feature extraction and
    /// cost-model inference all fan out over `params.threads` workers;
    /// `rng` is only consumed by the (cheap, sequential) ε-retention draw,
    /// so the proposal is bit-identical at any thread count.
    ///
    /// `rec` receives the stage spans (`propose.generate` /
    /// `propose.draft` / `propose.predict`, whose elapsed times also feed
    /// the [`SearchStats`](crate::SearchStats) wall ledger) and, nested in
    /// them, one span per stage call with that stage's counters:
    /// `evolve.next` / `evolve.init` (`evolve.offspring` /
    /// `evolve.sampled`), `psa.prune` (`psa.pool_in`, `psa.survivors`) and
    /// `model.predict` (`model.predicted`). The generator, PSA and the cost
    /// model know nothing of tracing; this method times and counts them.
    /// The recorder only observes; with a [`pruner_trace::NoopRecorder`]
    /// no clock is read and no event is built.
    #[allow(clippy::too_many_arguments)]
    pub fn propose<B: pruner_gpu::Backend>(
        &mut self,
        model: &dyn CostModel,
        psa: Option<&Psa>,
        measurer: &mut Measurer<B>,
        limits: &HardwareLimits,
        params: &ProposeParams,
        rng: &mut ChaCha8Rng,
        arena: &mut CandidateArena,
        rec: &mut dyn Recorder,
    ) -> (Vec<Program>, FunnelCounts) {
        let threads = params.threads.max(1);
        // Distinct tasks tuned in the same round must not share candidate
        // RNG streams: fold the task id into the campaign seed.
        let gen_seed =
            params.seed ^ (self.task_id as u64).wrapping_mul(0x517C_C1B7_2722_0A95);
        let mut funnel = FunnelCounts::default();

        // --- Sample pool: GA offspring + fresh random blood --------------
        rec.span_begin("propose.generate");
        arena.reset(Arc::clone(&self.ctx));
        let elites = self.elites();
        let pool_size = params.pool_size.max(params.space_size);
        // Fresh samples onto the arena's tail, counted as `evolve.sampled`.
        let sample = |arena: &mut CandidateArena, rec: &mut dyn Recorder, size, seed| {
            rec.span_begin("evolve.init");
            let base = arena.len();
            evolve::init_into(arena, size, limits, seed, params.round, threads);
            rec.counter("evolve.sampled", (arena.len() - base) as u64);
            rec.span_end("evolve.init");
        };
        if elites.is_empty() {
            sample(arena, rec, pool_size, gen_seed);
        } else {
            let elite_genes: Vec<GeneBuf> =
                elites.iter().map(|p| self.ctx.genes_from_schedule(&p.schedule)).collect();
            let offspring = pool_size * 3 / 4;
            rec.span_begin("evolve.next");
            evolve::next_generation_into(
                arena,
                &elite_genes,
                offspring,
                limits,
                gen_seed,
                params.round,
                threads,
            );
            rec.counter("evolve.offspring", offspring as u64);
            rec.span_end("evolve.next");
            // The fresh-blood tail reuses the same derived-seed generator
            // with a disjoint round tag so its streams never collide with
            // the offspring streams.
            sample(arena, rec, pool_size - arena.len(), gen_seed ^ 0xA076_1D64_78BD_642F);
        }
        funnel.generated = arena.len();
        measurer.charge_evolution(arena.len());

        // Drop duplicates and already-measured programs up front — one
        // batch pass over the fingerprint column, no string keys. Stats
        // rows were deferred during generation; fill them only for the
        // survivors (the GA path is typically ~75% duplicates).
        arena.dedup_first_wins(&self.measured_fps);
        funnel.deduped = arena.len();
        arena.ensure_stats_par(threads);
        measurer.record_wall(PipelineStage::Generate, rec.span_end("propose.generate"));
        if arena.is_empty() {
            return (Vec::new(), funnel);
        }
        let arena = &*arena;

        // --- Draft: PSA shortlist (or the whole pool for the baseline) ---
        let candidates: Vec<usize> = if let Some(psa) = psa {
            rec.span_begin("propose.draft");
            measurer.charge_psa_evals(arena.len());
            let n_random = ((params.space_size as f64) * params.epsilon).round() as usize;
            let n_target = params.space_size.saturating_sub(n_random).min(arena.len());
            rec.span_begin("psa.prune");
            rec.counter("psa.pool_in", arena.len() as u64);
            let shortlist = psa.prune_arena(arena, n_target, threads);
            rec.counter("psa.survivors", shortlist.len() as u64);
            rec.span_end("psa.prune");
            funnel.psa_survivors = Some(shortlist.len());
            let mut kept = vec![false; arena.len()];
            for &i in &shortlist {
                kept[i] = true;
            }
            let mut c = shortlist;
            // ε-retention: random members of the original (unpruned) pool.
            let leftovers: Vec<usize> = (0..arena.len()).filter(|&i| !kept[i]).collect();
            for _ in 0..n_random.min(leftovers.len()) {
                let pick = rand::Rng::gen_range(rng, 0..leftovers.len());
                c.push(leftovers[pick]);
            }
            funnel.eps_extras = c.len() - funnel.psa_survivors.unwrap_or(0);
            measurer.record_wall(PipelineStage::Psa, rec.span_end("propose.draft"));
            c
        } else {
            (0..arena.len()).collect()
        };
        funnel.predicted = candidates.len();

        // --- Verify: cost-model ranking ----------------------------------
        rec.span_begin("propose.predict");
        let samples = featurize_arena_par(arena, &candidates, self.task_id, threads);
        rec.span_begin("model.predict");
        let scores = model.predict_batch(&samples, threads);
        rec.counter("model.predicted", scores.len() as u64);
        rec.span_end("model.predict");
        measurer.charge_model_evals(candidates.len());
        measurer.record_wall(PipelineStage::Predict, rec.span_end("propose.predict"));
        // NaN scores (a diverged model) rank last rather than poisoning the
        // sort: the round degrades gracefully instead of crashing.
        let key = |i: usize| if scores[i].is_finite() { scores[i] } else { f32::NEG_INFINITY };
        let mut idx: Vec<usize> = (0..candidates.len()).collect();
        idx.sort_by(|&a, &b| key(b).total_cmp(&key(a)));
        idx.truncate(params.n);
        let mut picked_idx: Vec<usize> = idx.into_iter().map(|i| candidates[i]).collect();
        // Dedup across the shortlist/ε overlap.
        let mut out_seen = HashSet::new();
        picked_idx.retain(|&i| out_seen.insert(arena.fingerprint(i)));
        funnel.proposed = picked_idx.len();
        // Materialize to `Program` only here, at the measure boundary.
        let picked: Vec<Program> = picked_idx.into_iter().map(|i| arena.program(i)).collect();
        (picked, funnel)
    }

    /// Records one measurement, featurizes it into its labeled training
    /// sample (returned) and updates the incumbent.
    pub fn record(&mut self, prog: Program, latency: f64) -> &Sample {
        let improved = latency < self.best_latency();
        if improved {
            self.best = Some((prog.clone(), latency));
        }
        self.measured_fps.insert(prog.fingerprint());
        self.samples.push(Sample::labeled(&prog, latency, self.task_id));
        self.measured.push((prog, latency));
        self.samples.last().expect("just pushed")
    }

    /// Whether this task has already seen the program — recorded as a
    /// measurement (live or replayed from a record store) or quarantined.
    /// Known programs are never re-proposed; the warm-up also consults
    /// this so a fallback replayed from a store is not double-recorded.
    pub(crate) fn knows(&self, prog: &Program) -> bool {
        self.measured_fps.contains(&prog.fingerprint())
    }

    /// Quarantines a program whose measurement failed permanently: it is
    /// never re-proposed (its fingerprint joins the measured set) and never
    /// enters the training data (it is not recorded as a labeled sample).
    /// The string key is kept alongside the fingerprint only because the
    /// on-disk checkpoint format names quarantined programs by key.
    pub fn quarantine(&mut self, prog: &Program) {
        let fp = prog.fingerprint();
        self.measured_fps.insert(fp);
        self.quarantined.insert(prog.dedup_key(), fp);
    }

    /// Number of programs quarantined on this task.
    #[cfg(test)]
    fn num_quarantined(&self) -> usize {
        self.quarantined.len()
    }

    /// Marks the end of one tuning round for scheduler bookkeeping.
    pub(crate) fn finish_round(&mut self, improved: bool) {
        if improved {
            self.rounds_since_improvement = 0;
        } else {
            self.rounds_since_improvement += 1;
        }
    }

    fn elites(&self) -> Vec<Program> {
        let mut by_latency: Vec<&(Program, f64)> = self.measured.iter().collect();
        by_latency.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite latencies"));
        by_latency.into_iter().take(ELITE_POOL).map(|(p, _)| p.clone()).collect()
    }
}

/// Extracts features for the selected arena candidates, fanning the
/// per-candidate work out over contiguous index bands and merging in index
/// order — the sample list is identical at any thread count.
fn featurize_arena_par(
    arena: &CandidateArena,
    picks: &[usize],
    task_id: usize,
    threads: usize,
) -> Vec<Sample> {
    if threads <= 1 || picks.len() <= 1 {
        return picks.iter().map(|&i| Sample::from_arena(arena, i, task_id)).collect();
    }
    let mut slots: Vec<Option<Sample>> = (0..picks.len()).map(|_| None).collect();
    fan_out_mut(&mut slots, 1, threads, |first, out_band| {
        for (slot, &i) in out_band.iter_mut().zip(&picks[first..]) {
            *slot = Some(Sample::from_arena(arena, i, task_id));
        }
    });
    slots.into_iter().map(|s| s.expect("every slot is filled")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pruner_cost::{ModelKind, RandomModel};
    use pruner_trace::NoopRecorder;
    use pruner_gpu::{GpuSpec, Simulator};
    use rand::SeedableRng;

    fn setup() -> (TaskTuner, Measurer, HardwareLimits, ChaCha8Rng) {
        let task = TaskTuner::new(Workload::matmul(1, 256, 256, 256), 0, 1);
        let measurer = Measurer::new(Simulator::new(GpuSpec::t4()));
        (task, measurer, GpuSpec::t4().limits(), ChaCha8Rng::seed_from_u64(7))
    }

    fn params(space_size: usize, pool_size: usize, epsilon: f64, n: usize, round: u64) -> ProposeParams {
        ProposeParams { space_size, pool_size, epsilon, n, seed: 7, round, threads: 1 }
    }

    /// One untraced proposal through a throw-away arena.
    fn propose(
        task: &mut TaskTuner,
        model: &dyn CostModel,
        psa: Option<&Psa>,
        m: &mut Measurer,
        limits: &HardwareLimits,
        p: &ProposeParams,
        rng: &mut ChaCha8Rng,
    ) -> Vec<Program> {
        let mut arena = CandidateArena::default();
        task.propose(model, psa, m, limits, p, rng, &mut arena, &mut NoopRecorder).0
    }

    #[test]
    fn propose_returns_requested_count() {
        let (mut task, mut m, limits, mut rng) = setup();
        let model = RandomModel::new(1);
        let progs =
            propose(&mut task, &model, None, &mut m, &limits, &params(128, 128, 0.0, 10, 0), &mut rng);
        assert_eq!(progs.len(), 10);
        assert!(m.stats().model_time_s > 0.0);
    }

    #[test]
    fn propose_with_psa_drafts_each_round() {
        let (mut task, mut m, limits, mut rng) = setup();
        let psa = Psa::new(GpuSpec::t4());
        let model = RandomModel::new(1);
        propose(&mut task, &model, Some(&psa), &mut m, &limits, &params(64, 256, 0.2, 5, 0), &mut rng);
        let psa_time = m.stats().psa_time_s;
        assert!(psa_time > 0.0);
        propose(&mut task, &model, Some(&psa), &mut m, &limits, &params(64, 256, 0.2, 5, 1), &mut rng);
        assert!(m.stats().psa_time_s > psa_time, "PSA must draft every round");
        // The model only ever scores the shortlist, not the full pool.
        let model_evals = m.stats().model_time_s / m.time_model().model_eval_s;
        assert!(model_evals <= 2.0 * 64.0 + 1.0, "model scored too much: {model_evals}");
    }

    #[test]
    fn propose_is_thread_count_invariant() {
        let psa = Psa::new(GpuSpec::t4());
        let run = |threads: usize| {
            // Fresh model per run: RandomModel's per-call counter is state.
            let model = RandomModel::new(1);
            let (mut task, mut m, limits, mut rng) = setup();
            let mut all = Vec::new();
            for round in 0..3 {
                let p = ProposeParams { threads, ..params(64, 256, 0.2, 6, round) };
                let progs = propose(&mut task, &model, Some(&psa), &mut m, &limits, &p, &mut rng);
                for prog in &progs {
                    let outcome = m.measure(prog, &mut NoopRecorder);
                    task.record(prog.clone(), outcome.latency().unwrap());
                }
                all.extend(progs);
            }
            (all, m.stats())
        };
        let (serial, serial_stats) = run(1);
        for threads in [2, 3, 4, 8] {
            let (progs, stats) = run(threads);
            assert_eq!(progs, serial, "proposals diverged at {threads} threads");
            assert_eq!(stats, serial_stats, "stats diverged at {threads} threads");
        }
    }

    #[test]
    fn propose_traced_matches_untraced_and_counts_the_funnel() {
        let psa = Psa::new(GpuSpec::t4());
        let run = |traced: bool| {
            let model = RandomModel::new(1);
            let (mut task, mut m, limits, mut rng) = setup();
            let mut trace = pruner_trace::TraceHandle::new();
            // One arena across the rounds, as the tuner lends it.
            let mut arena = CandidateArena::default();
            let mut all = Vec::new();
            let mut funnels = Vec::new();
            for round in 0..3 {
                let p = params(64, 256, 0.2, 6, round);
                let rec: &mut dyn Recorder = if traced { &mut trace } else { &mut NoopRecorder };
                let (progs, funnel) = task.propose(
                    &model, Some(&psa), &mut m, &limits, &p, &mut rng, &mut arena, rec,
                );
                for prog in &progs {
                    let outcome = m.measure(prog, &mut NoopRecorder);
                    task.record(prog.clone(), outcome.latency().unwrap());
                }
                all.extend(progs);
                funnels.push(funnel);
            }
            (all, funnels, m.stats(), trace)
        };
        let (plain, plain_funnels, plain_stats, _) = run(false);
        let (traced, traced_funnels, traced_stats, trace) = run(true);
        assert_eq!(plain, traced, "recorder must not influence proposals");
        assert_eq!(plain_funnels, traced_funnels, "funnel counts are deterministic");
        assert_eq!(plain_stats, traced_stats);
        for f in &traced_funnels {
            assert!(f.generated >= f.deduped, "dedup can only shrink the pool");
            let survivors = f.psa_survivors.expect("PSA was on");
            assert!(survivors <= f.deduped);
            assert_eq!(f.predicted, survivors + f.eps_extras, "model scores shortlist + ε");
            assert!(f.proposed <= 6);
        }
        // Wall timings came from trace spans: traced runs have them, the
        // NoopRecorder run performed no clock reads at all.
        assert!(traced_stats.wall.total_s() >= 0.0);
        assert_eq!(plain_stats.wall.total_s(), 0.0);
        let records = trace.records();
        let spans: Vec<&str> = records
            .iter()
            .filter(|r| r.kind() == "span")
            .filter_map(|r| r.get("name").and_then(pruner_trace::Value::as_str))
            .map(|s| match s {
                "propose.generate" => "generate",
                "propose.draft" => "draft",
                "propose.predict" => "predict",
                _ => "inner",
            })
            .collect();
        assert!(spans.contains(&"generate") && spans.contains(&"draft"));
        assert!(spans.contains(&"predict") && spans.contains(&"inner"));
        // The stage counters `propose` emits reconcile with the funnel it
        // returns, summed over the rounds.
        let counter = |name: &str| {
            let named = |r: &&pruner_trace::Record| {
                r.kind() == "counter"
                    && r.get("name").and_then(pruner_trace::Value::as_str) == Some(name)
            };
            let record = records.iter().find(named).unwrap_or_else(|| panic!("no {name}"));
            record.get("value").and_then(pruner_trace::Value::as_u64).unwrap()
        };
        let total = |stage: fn(&FunnelCounts) -> usize| {
            traced_funnels.iter().map(stage).sum::<usize>() as u64
        };
        assert_eq!(counter("evolve.sampled") + counter("evolve.offspring"), total(|f| f.generated));
        assert_eq!(counter("psa.pool_in"), total(|f| f.deduped));
        assert_eq!(counter("psa.survivors"), total(|f| f.psa_survivors.unwrap()));
        assert_eq!(counter("model.predicted"), total(|f| f.predicted));
    }

    #[test]
    fn record_tracks_incumbent() {
        let (mut task, _, limits, mut rng) = setup();
        let a = Program::sample(&task.workload, &limits, &mut rng);
        let b = Program::sample(&task.workload, &limits, &mut rng);
        task.record(a, 2e-3);
        task.record(b, 1e-3);
        assert_eq!(task.best_latency(), 1e-3);
        assert_eq!(task.num_measured(), 2);
        assert_eq!(task.labeled_samples().len(), 2);
    }

    #[test]
    fn proposals_avoid_measured_programs() {
        let (mut task, mut m, limits, mut rng) = setup();
        let model = RandomModel::new(2);
        let first =
            propose(&mut task, &model, None, &mut m, &limits, &params(64, 64, 0.0, 8, 0), &mut rng);
        for p in &first {
            task.record(p.clone(), 1e-3);
        }
        let second =
            propose(&mut task, &model, None, &mut m, &limits, &params(64, 64, 0.0, 8, 1), &mut rng);
        let first_keys: HashSet<String> = first.iter().map(|p| p.dedup_key()).collect();
        assert!(second.iter().all(|p| !first_keys.contains(&p.dedup_key())));
    }

    #[test]
    fn quarantined_programs_never_return() {
        let (mut task, mut m, limits, mut rng) = setup();
        let model = RandomModel::new(2);
        let first =
            propose(&mut task, &model, None, &mut m, &limits, &params(64, 64, 0.0, 8, 0), &mut rng);
        let bad = first[0].clone();
        task.quarantine(&bad);
        assert_eq!(task.num_quarantined(), 1);
        assert!(task.labeled_samples().is_empty(), "quarantine must not create training data");
        let second =
            propose(&mut task, &model, None, &mut m, &limits, &params(64, 64, 0.0, 8, 1), &mut rng);
        assert!(
            second.iter().all(|p| p.dedup_key() != bad.dedup_key()),
            "a quarantined program must never be re-proposed"
        );
    }

    #[test]
    fn checkpoint_round_trip_restores_incumbent_and_quarantine() {
        let (mut task, _, limits, mut rng) = setup();
        let a = Program::sample(&task.workload, &limits, &mut rng);
        let b = Program::sample(&task.workload, &limits, &mut rng);
        let c = Program::sample(&task.workload, &limits, &mut rng);
        task.record(a, 2e-3);
        task.record(b.clone(), 1e-3);
        task.quarantine(&c);
        task.finish_round(false);
        let restored = TaskTuner::from_checkpoint(
            task.workload.clone(),
            task.task_id,
            task.weight,
            task.measured_log().to_vec(),
            task.quarantined_keys(),
            task.quarantined_fps(),
            task.rounds_since_improvement(),
        );
        assert_eq!(restored.best_latency(), 1e-3);
        assert_eq!(restored.best_program().map(|p| p.dedup_key()), Some(b.dedup_key()));
        assert_eq!(restored.num_measured(), 2);
        assert_eq!(restored.num_quarantined(), 1);
        assert_eq!(restored.rounds_since_improvement(), 1);
    }

    #[test]
    fn nan_scores_degrade_gracefully() {
        // Failure injection: a model that returns NaN for every other
        // candidate must not crash the round, and real scores still rank.
        struct HalfNan;
        impl pruner_cost::CostModel for HalfNan {
            fn name(&self) -> &'static str {
                "half-nan"
            }
            fn predict_with(&self, _: &mut pruner_nn::Graph, samples: &[Sample]) -> Vec<f32> {
                (0..samples.len())
                    .map(|i| if i % 2 == 0 { f32::NAN } else { i as f32 })
                    .collect()
            }
            fn fit_batch(&mut self, _: &[Sample], _: usize, _: usize) -> f64 {
                0.0
            }
            fn clone_box(&self) -> Box<dyn pruner_cost::CostModel> {
                Box::new(HalfNan)
            }
        }
        let (mut task, mut m, limits, mut rng) = setup();
        let model = HalfNan;
        let progs =
            propose(&mut task, &model, None, &mut m, &limits, &params(64, 64, 0.0, 8, 0), &mut rng);
        assert_eq!(progs.len(), 8, "NaN scores must not shrink the proposal");
    }

    #[test]
    fn scheduler_counters() {
        let (mut task, _, _, _) = setup();
        task.finish_round(false);
        task.finish_round(false);
        assert_eq!(task.rounds_since_improvement(), 2);
        task.finish_round(true);
        assert_eq!(task.rounds_since_improvement(), 0);
    }

    #[test]
    fn model_kinds_can_propose() {
        let (mut task, mut m, limits, mut rng) = setup();
        for (round, kind) in [ModelKind::Pacm, ModelKind::Ansor].into_iter().enumerate() {
            let model = kind.build(3);
            let progs = propose(
                &mut task,
                model.as_ref(),
                None,
                &mut m,
                &limits,
                &params(32, 32, 0.0, 4, round as u64),
                &mut rng,
            );
            assert!(!progs.is_empty());
        }
    }
}
