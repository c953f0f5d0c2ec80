//! Measurement with caching, fault handling, and search-time accounting.

use pruner_gpu::{Backend, FaultKind, Simulator};
use pruner_sketch::Program;
use pruner_trace::{Record, Recorder};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Wall-clock cost constants of one tuning campaign.
///
/// The paper's "Search Time (s)" axes measure real hours on real machines;
/// our substrate executes instantly, so the tuner *accounts* time the way
/// the real system would spend it: compiling and running each measured
/// candidate on the device, evaluating candidates with the cost model (or
/// PSA), and fine-tuning the model. The default constants are calibrated
/// against the paper's Table 3 (Ansor ≈ 2000 trials in ~2 hours on TITAN V,
/// i.e. ~3.7 s/trial dominated by compile + measure).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimeModel {
    /// Seconds to compile one candidate kernel.
    pub compile_s: f64,
    /// Fixed per-measurement harness overhead, seconds.
    pub measure_overhead_s: f64,
    /// Repeats averaged per measurement.
    pub repeats: u32,
    /// Seconds per cost-model candidate evaluation (features + inference).
    pub model_eval_s: f64,
    /// Seconds per PSA candidate evaluation (formula only).
    pub psa_eval_s: f64,
    /// Seconds per (sample × epoch) of cost-model fine-tuning.
    pub train_sample_s: f64,
    /// Seconds per evolutionary-search candidate generated (mutation,
    /// legality checks, feature extraction for scoring).
    pub evolve_s: f64,
}

impl Default for TimeModel {
    fn default() -> Self {
        TimeModel {
            compile_s: 1.9,
            measure_overhead_s: 0.35,
            repeats: 100,
            model_eval_s: 4.0e-4,
            psa_eval_s: 2.0e-5,
            train_sample_s: 6.0e-4,
            evolve_s: 1.5e-4,
        }
    }
}

/// How the measurement harness reacts to injected hardware failures.
///
/// Mirrors the retry discipline of a real RPC measurement fleet: a failed
/// attempt is retried a bounded number of times with exponential backoff
/// (charged to simulated time, not host time), device resets charge an
/// extra recovery penalty, and timings whose relative standard deviation
/// exceeds `outlier_rel_std` are treated as failed attempts too.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Extra attempts allowed after the first failure (0 = fail fast).
    pub max_retries: u32,
    /// Backoff charged before the first retry, seconds.
    pub backoff_base_s: f64,
    /// Multiplier applied to the backoff on each further retry.
    pub backoff_mult: f64,
    /// Deadline charged when an attempt times out, seconds.
    pub timeout_s: f64,
    /// Recovery penalty charged when the device resets, seconds.
    pub reset_penalty_s: f64,
    /// Relative standard deviation (σ / mean) above which a timing is
    /// rejected as an outlier and the attempt retried.
    pub outlier_rel_std: f64,
    /// Relative jitter on each charged backoff: a value `j > 0` scales
    /// the exponential backoff by a factor drawn uniformly from
    /// `[1 - j, 1 + j]`, so simultaneous retries across a fleet don't
    /// synchronize into thundering herds. `0.0` (the default) charges
    /// the exact exponential schedule — the historical ledger.
    #[serde(default)]
    pub backoff_jitter: f64,
    /// Seed of the jitter stream. Each draw is a pure function of
    /// `(jitter_seed, attempt nonce)`, so the jittered ledger is as
    /// deterministic and resume-stable as the unjittered one.
    #[serde(default)]
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            backoff_base_s: 0.5,
            backoff_mult: 2.0,
            timeout_s: 10.0,
            reset_penalty_s: 30.0,
            outlier_rel_std: 0.5,
            backoff_jitter: 0.0,
            jitter_seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The simulated backoff charged before retry `attempt` (1-based):
    /// the exponential base `backoff_base_s * backoff_mult^(attempt-1)`,
    /// scaled by the seeded jitter factor for `nonce` (the attempt nonce
    /// about to be consumed) when `backoff_jitter > 0`.
    pub fn backoff_s(&self, attempt: u32, nonce: u64) -> f64 {
        debug_assert!(attempt >= 1, "backoff is only charged before retries");
        let base = self.backoff_base_s * self.backoff_mult.powi(attempt as i32 - 1);
        if self.backoff_jitter <= 0.0 {
            return base;
        }
        // Same idiom as the measurement fault stream: hash the identity
        // of the draw, seed a private ChaCha8, take one uniform.
        use std::hash::{Hash, Hasher};
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        self.jitter_seed.hash(&mut hasher);
        nonce.hash(&mut hasher);
        let mut rng = ChaCha8Rng::seed_from_u64(hasher.finish());
        let u: f64 = rng.gen();
        base * (1.0 + self.backoff_jitter * (2.0 * u - 1.0))
    }
}

/// The final verdict on measuring one program, after retries.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum MeasureOutcome {
    /// A trusted timing.
    Success {
        /// Mean latency over the configured repeats, seconds.
        latency_s: f64,
        /// Population variance of the per-repeat latencies, seconds².
        variance: f64,
    },
    /// Every attempt failed; the program is quarantined.
    Failure {
        /// The failure class of the last attempt.
        kind: FaultKind,
        /// Total attempts spent before giving up.
        attempts: u32,
    },
}

/// A [`MeasureOutcome`] converts losslessly into the persistent store's
/// [`pruner_store::RecordOutcome`] (and back): the store redeclares the
/// enum so log readers never have to link the search loop.
impl From<MeasureOutcome> for pruner_store::RecordOutcome {
    fn from(out: MeasureOutcome) -> pruner_store::RecordOutcome {
        match out {
            MeasureOutcome::Success { latency_s, variance } => {
                pruner_store::RecordOutcome::Success { latency_s, variance }
            }
            MeasureOutcome::Failure { kind, attempts } => {
                pruner_store::RecordOutcome::Failure { kind, attempts }
            }
        }
    }
}

impl From<pruner_store::RecordOutcome> for MeasureOutcome {
    fn from(out: pruner_store::RecordOutcome) -> MeasureOutcome {
        match out {
            pruner_store::RecordOutcome::Success { latency_s, variance } => {
                MeasureOutcome::Success { latency_s, variance }
            }
            pruner_store::RecordOutcome::Failure { kind, attempts } => {
                MeasureOutcome::Failure { kind, attempts }
            }
        }
    }
}

impl MeasureOutcome {
    /// The latency if the measurement succeeded.
    pub fn latency(&self) -> Option<f64> {
        match self {
            MeasureOutcome::Success { latency_s, .. } => Some(*latency_s),
            MeasureOutcome::Failure { .. } => None,
        }
    }

    /// Whether this outcome carries a trusted timing.
    pub fn is_success(&self) -> bool {
        matches!(self, MeasureOutcome::Success { .. })
    }
}

/// A stage of the candidate pipeline whose host wall-clock time is
/// tracked. Each variant corresponds to one trace span and one field of
/// [`WallTimings`], so there is exactly one timing source per stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineStage {
    /// Candidate generation (GA init / next-generation fan-out).
    Generate,
    /// PSA drafting (penalized-estimate fan-out).
    Psa,
    /// Cost-model inference (featurize + predict fan-out).
    Predict,
}

/// Host wall-clock seconds spent in the parallel pipeline stages.
///
/// These are *host* timings: they vary run to run and machine to machine,
/// so they are excluded from [`SearchStats`] equality and serialization.
/// They are fed exclusively from trace-span measurements
/// ([`pruner_trace::Recorder::span_end`] returns the elapsed seconds), so
/// when tracing is disabled the campaign performs no clock reads at all
/// and every field here stays 0.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WallTimings {
    /// Seconds in candidate generation (GA fan-out).
    pub generate_s: f64,
    /// Seconds in PSA drafting (estimate fan-out).
    pub psa_s: f64,
    /// Seconds in cost-model inference (predict fan-out).
    pub predict_s: f64,
}

impl WallTimings {
    /// Total host wall-clock seconds across all tracked stages.
    pub fn total_s(&self) -> f64 {
        self.generate_s + self.psa_s + self.predict_s
    }
}

/// Simulated-time ledger of one tuning campaign.
///
/// The `*_time_s` fields are *simulated* costs charged through
/// [`TimeModel`] and are fully deterministic. The `wall` field is *host*
/// wall-clock time actually spent in the parallel pipeline stages
/// (candidate generation, PSA drafting, cost-model inference); it varies
/// run to run and is therefore excluded from both equality comparison and
/// serialization.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct SearchStats {
    /// Programs measured on the (simulated) device.
    pub trials: u64,
    /// Seconds spent compiling + running measurements.
    pub measure_time_s: f64,
    /// Seconds spent in cost-model inference.
    pub model_time_s: f64,
    /// Seconds spent in PSA estimates.
    pub psa_time_s: f64,
    /// Seconds spent fine-tuning cost models.
    pub train_time_s: f64,
    /// Seconds spent generating/evolving candidates.
    pub evolve_time_s: f64,
    /// Measurement attempts that failed (all classes, including rejected
    /// outlier timings).
    #[serde(default)]
    pub failures: u64,
    /// Failed attempts that were retried.
    #[serde(default)]
    pub retries: u64,
    /// Attempts lost to compile errors.
    #[serde(default)]
    pub compile_errors: u64,
    /// Attempts lost to run timeouts.
    #[serde(default)]
    pub timeouts: u64,
    /// Attempts lost to device resets.
    #[serde(default)]
    pub device_resets: u64,
    /// Timings rejected as outliers (excessive dispersion).
    #[serde(default)]
    pub outliers: u64,
    /// Programs quarantined after exhausting retries.
    #[serde(default)]
    pub quarantined: u64,
    /// Seconds of simulated exponential backoff before retries.
    #[serde(default)]
    pub retry_backoff_s: f64,
    /// Seconds of simulated device time wasted on failed attempts
    /// (compile time of broken kernels, timeout deadlines, reset
    /// recovery, discarded outlier runs).
    #[serde(default)]
    pub fault_time_s: f64,
    /// Host wall-clock seconds per pipeline stage, fed from trace spans.
    #[serde(skip)]
    pub wall: WallTimings,
}

impl PartialEq for SearchStats {
    /// Compares only the deterministic simulated ledger; host wall-clock
    /// timings differ between otherwise identical runs.
    fn eq(&self, other: &Self) -> bool {
        self.trials == other.trials
            && self.measure_time_s == other.measure_time_s
            && self.model_time_s == other.model_time_s
            && self.psa_time_s == other.psa_time_s
            && self.train_time_s == other.train_time_s
            && self.evolve_time_s == other.evolve_time_s
            && self.failures == other.failures
            && self.retries == other.retries
            && self.compile_errors == other.compile_errors
            && self.timeouts == other.timeouts
            && self.device_resets == other.device_resets
            && self.outliers == other.outliers
            && self.quarantined == other.quarantined
            && self.retry_backoff_s == other.retry_backoff_s
            && self.fault_time_s == other.fault_time_s
    }
}

impl SearchStats {
    /// Total simulated search time, including time lost to faults.
    pub fn total_s(&self) -> f64 {
        self.measure_time_s
            + self.model_time_s
            + self.psa_time_s
            + self.train_time_s
            + self.evolve_time_s
            + self.retry_backoff_s
            + self.fault_time_s
    }

    /// Total host wall-clock time spent in the parallel pipeline stages.
    pub fn pipeline_wall_s(&self) -> f64 {
        self.wall.total_s()
    }
}

/// Measures programs on a [`Backend`] (the analytical simulator by
/// default), deduplicating repeats, retrying injected failures per
/// [`RetryPolicy`], and accounting simulated search time.
#[derive(Debug, Clone)]
pub struct Measurer<B: Backend = Simulator> {
    backend: B,
    time: TimeModel,
    policy: RetryPolicy,
    cache: HashMap<String, MeasureOutcome>,
    stats: SearchStats,
    /// Measurement attempts issued so far; the nonce of the next attempt.
    /// With no faults every attempt succeeds, so this tracks
    /// `stats.trials` exactly and the zero-fault noise stream is
    /// bit-identical to a fault-unaware harness.
    attempts: u64,
}

impl Measurer<Simulator> {
    /// The underlying simulator (simulator-backed measurers only).
    pub fn simulator(&self) -> &Simulator {
        &self.backend
    }
}

impl<B: Backend> Measurer<B> {
    /// Wraps a measurement backend with the default time model.
    pub fn new(backend: B) -> Measurer<B> {
        Measurer::with_time_model(backend, TimeModel::default())
    }

    /// Wraps a measurement backend with an explicit time model.
    pub fn with_time_model(backend: B, time: TimeModel) -> Measurer<B> {
        Measurer {
            backend,
            time,
            policy: RetryPolicy::default(),
            cache: HashMap::new(),
            stats: SearchStats::default(),
            attempts: 0,
        }
    }

    /// Rebuilds a measurer from checkpointed state.
    pub(crate) fn from_parts(
        backend: B,
        time: TimeModel,
        policy: RetryPolicy,
        cache: Vec<(String, MeasureOutcome)>,
        stats: SearchStats,
        attempts: u64,
    ) -> Measurer<B> {
        Measurer { backend, time, policy, cache: cache.into_iter().collect(), stats, attempts }
    }

    /// The measurement backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// The time-cost constants in use.
    pub fn time_model(&self) -> &TimeModel {
        &self.time
    }

    /// Replaces the time-cost constants **without** touching the
    /// measurement cache, ledger, or attempt counter — swapping cost
    /// constants mid-campaign must not forget what was already measured.
    pub fn set_time_model(&mut self, time: TimeModel) {
        self.time = time;
    }

    /// The retry policy in use.
    pub fn retry_policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// Replaces the retry policy.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.policy = policy;
    }

    /// The accumulated ledger.
    pub fn stats(&self) -> SearchStats {
        self.stats
    }

    /// Measurement attempts issued so far (the next attempt's nonce).
    pub(crate) fn attempts(&self) -> u64 {
        self.attempts
    }

    /// The measurement cache in deterministic (sorted-key) order, for
    /// checkpointing.
    pub(crate) fn cache_entries(&self) -> Vec<(String, MeasureOutcome)> {
        let mut entries: Vec<(String, MeasureOutcome)> =
            self.cache.iter().map(|(k, v)| (k.clone(), *v)).collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries
    }

    /// Measures one program (averaged over the configured repeats),
    /// charging compile + run time, retrying injected failures up to the
    /// policy bound. Previously measured programs return the cached
    /// outcome and charge nothing — real tuners skip re-measuring too,
    /// and a quarantined kernel is never put back on the device.
    ///
    /// `rec` receives per-attempt `fault` records, a `quarantine` record
    /// when the program exhausts its retries, and a `measure.cache_hits`
    /// counter. It only observes: outcome, ledger and nonce stream are
    /// identical with any recorder, a [`pruner_trace::NoopRecorder`]
    /// included.
    pub fn measure(&mut self, prog: &Program, rec: &mut dyn Recorder) -> MeasureOutcome {
        let key = prog.dedup_key();
        if let Some(&out) = self.cache.get(&key) {
            rec.counter("measure.cache_hits", 1);
            return out;
        }
        let mut last_kind = FaultKind::CompileError;
        for attempt in 0..=self.policy.max_retries {
            if attempt > 0 {
                self.stats.retries += 1;
                // `self.attempts` is the nonce the upcoming attempt will
                // consume — a stable identity for the jitter draw.
                self.stats.retry_backoff_s += self.policy.backoff_s(attempt, self.attempts);
            }
            let nonce = self.attempts;
            self.attempts += 1;
            match self.backend.try_measure(prog, nonce, self.time.repeats) {
                Err(kind) => {
                    let charged = self.record_fault(kind, 0.0);
                    if rec.enabled() {
                        rec.emit(
                            Record::new("fault")
                                .str("fault_kind", kind.label())
                                .u64("attempt", u64::from(attempt) + 1)
                                .f64("charged_s", charged),
                        );
                    }
                    last_kind = kind;
                }
                Ok(m) if m.rel_std() > self.policy.outlier_rel_std => {
                    // The run "completed", so the device time was spent
                    // before the timing was rejected.
                    let charged =
                        self.record_fault(FaultKind::Outlier, m.mean_s * self.time.repeats as f64);
                    if rec.enabled() {
                        rec.emit(
                            Record::new("fault")
                                .str("fault_kind", FaultKind::Outlier.label())
                                .u64("attempt", u64::from(attempt) + 1)
                                .f64("charged_s", charged),
                        );
                    }
                    last_kind = FaultKind::Outlier;
                }
                Ok(m) => {
                    self.stats.trials += 1;
                    self.stats.measure_time_s += self.time.compile_s
                        + self.time.measure_overhead_s
                        + m.mean_s * self.time.repeats as f64;
                    let out =
                        MeasureOutcome::Success { latency_s: m.mean_s, variance: m.variance };
                    self.cache.insert(key, out);
                    return out;
                }
            }
        }
        self.stats.quarantined += 1;
        if rec.enabled() {
            rec.emit(
                Record::new("quarantine")
                    .str("fault_kind", last_kind.label())
                    .u64("attempts", u64::from(self.policy.max_retries) + 1),
            );
        }
        let out =
            MeasureOutcome::Failure { kind: last_kind, attempts: self.policy.max_retries + 1 };
        self.cache.insert(key, out);
        out
    }

    /// Measures one program bypassing the fault model (a hand-verified
    /// reference run, as a real campaign does for its seed schedules).
    /// Consumes the same nonce stream as [`Measurer::measure`] so the
    /// zero-fault path is unchanged, and always produces a trusted timing.
    pub fn measure_trusted(&mut self, prog: &Program) -> f64 {
        let key = prog.dedup_key();
        if let Some(&out) = self.cache.get(&key) {
            if let Some(lat) = out.latency() {
                return lat;
            }
        }
        let nonce = self.attempts;
        self.attempts += 1;
        let m = self.backend.measure_dist(prog, nonce, self.time.repeats);
        self.stats.trials += 1;
        self.stats.measure_time_s +=
            self.time.compile_s + self.time.measure_overhead_s + m.mean_s * self.time.repeats as f64;
        let out = MeasureOutcome::Success { latency_s: m.mean_s, variance: m.variance };
        self.cache.insert(key, out);
        m.mean_s
    }

    /// Accounts one failed attempt and returns the simulated device
    /// seconds it was charged (also added to `fault_time_s`).
    fn record_fault(&mut self, kind: FaultKind, run_s: f64) -> f64 {
        self.stats.failures += 1;
        let charged = match kind {
            FaultKind::CompileError => {
                self.stats.compile_errors += 1;
                self.time.compile_s
            }
            FaultKind::Timeout => {
                self.stats.timeouts += 1;
                self.time.compile_s + self.time.measure_overhead_s + self.policy.timeout_s
            }
            FaultKind::DeviceReset => {
                self.stats.device_resets += 1;
                self.time.compile_s + self.time.measure_overhead_s + self.policy.reset_penalty_s
            }
            FaultKind::Outlier => {
                self.stats.outliers += 1;
                self.time.compile_s + self.time.measure_overhead_s + run_s
            }
        };
        self.stats.fault_time_s += charged;
        charged
    }

    /// Whether a program has already been measured (or quarantined).
    pub fn is_measured(&self, prog: &Program) -> bool {
        self.cache.contains_key(&prog.dedup_key())
    }

    /// The cached verdict for a program, if it has one — measured this
    /// run, restored from a checkpoint, or pre-seeded from a record store.
    pub fn cached_outcome(&self, prog: &Program) -> Option<MeasureOutcome> {
        self.cache.get(&prog.dedup_key()).copied()
    }

    /// Seeds the cache with an outcome paid for by an *earlier* campaign
    /// (store warm start): no simulated time is charged, no attempt nonce
    /// is consumed, and the trial counter is untouched — replayed
    /// knowledge is free, which is the whole point of persisting it.
    /// Returns `false` (a no-op) if the program already has a verdict;
    /// a live measurement never gets overwritten by a stored one.
    pub fn preseed(&mut self, key: String, outcome: MeasureOutcome) -> bool {
        if self.cache.contains_key(&key) {
            return false;
        }
        self.cache.insert(key, outcome);
        true
    }

    /// Charges cost-model inference time for `n` candidates.
    pub fn charge_model_evals(&mut self, n: usize) {
        self.stats.model_time_s += n as f64 * self.time.model_eval_s;
    }

    /// Charges PSA estimation time for `n` candidates.
    pub fn charge_psa_evals(&mut self, n: usize) {
        self.stats.psa_time_s += n as f64 * self.time.psa_eval_s;
    }

    /// Charges fine-tuning time for `samples × epochs` training work.
    pub fn charge_training(&mut self, samples: usize, epochs: usize) {
        self.stats.train_time_s += (samples * epochs) as f64 * self.time.train_sample_s;
    }

    /// Charges candidate-generation time for `n` evolved candidates.
    pub fn charge_evolution(&mut self, n: usize) {
        self.stats.evolve_time_s += n as f64 * self.time.evolve_s;
    }

    /// Records host wall-clock time spent in one pipeline stage. Callers
    /// pass the elapsed seconds returned by
    /// [`pruner_trace::Recorder::span_end`] so the stats ledger and the
    /// trace share one clock read; with tracing disabled `span_end`
    /// returns 0.0 and the wall ledger stays empty.
    pub fn record_wall(&mut self, stage: PipelineStage, seconds: f64) {
        match stage {
            PipelineStage::Generate => self.stats.wall.generate_s += seconds,
            PipelineStage::Psa => self.stats.wall.psa_s += seconds,
            PipelineStage::Predict => self.stats.wall.predict_s += seconds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pruner_gpu::{FaultModel, GpuSpec};
    use pruner_ir::Workload;
    use pruner_sketch::{HardwareLimits, Program};
    use pruner_trace::NoopRecorder;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn measurer() -> Measurer {
        Measurer::new(Simulator::new(GpuSpec::t4()))
    }

    fn faulty_measurer(rate: f64) -> Measurer {
        let mut sim = Simulator::new(GpuSpec::t4());
        sim.set_fault_model(Some(FaultModel::from_rate(11, rate)));
        Measurer::new(sim)
    }

    fn prog(seed: u64) -> Program {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Program::sample(&Workload::matmul(1, 256, 256, 256), &HardwareLimits::default(), &mut rng)
    }

    #[test]
    fn measurement_is_cached() {
        let mut m = measurer();
        let p = prog(1);
        let a = m.measure(&p, &mut NoopRecorder);
        let t1 = m.stats().measure_time_s;
        let b = m.measure(&p, &mut NoopRecorder);
        assert_eq!(a, b);
        assert!(a.is_success());
        assert_eq!(m.stats().trials, 1, "repeat measurement must not count");
        assert_eq!(m.stats().measure_time_s, t1);
        assert!(m.is_measured(&p));
    }

    #[test]
    fn zero_fault_path_matches_legacy_nonce_stream() {
        // Without faults the attempt nonce must equal the trial count at
        // every cache miss, so measure() reproduces the historical
        // measure_avg(prog, trials, repeats) stream bit for bit.
        let mut m = measurer();
        let sim = Simulator::new(GpuSpec::t4());
        for s in 0..8 {
            let p = prog(s);
            let expect = sim.measure_avg(&p, m.stats().trials, m.time_model().repeats);
            let got = m.measure(&p, &mut NoopRecorder).latency().expect("fault-free");
            assert_eq!(got, expect, "nonce stream diverged at trial {s}");
        }
        assert_eq!(m.stats().failures, 0);
        assert_eq!(m.stats().fault_time_s, 0.0);
    }

    #[test]
    fn measure_trusted_is_identical_to_measure_without_faults() {
        let mut a = measurer();
        let mut b = measurer();
        for s in 0..6 {
            let p = prog(s);
            let la = a.measure(&p, &mut NoopRecorder).latency().unwrap();
            let lb = b.measure_trusted(&p);
            assert_eq!(la, lb);
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn retries_and_quarantine_account_faults() {
        // At a near-certain fault rate every program exhausts its retries.
        let mut m = faulty_measurer(0.9);
        m.set_retry_policy(RetryPolicy { max_retries: 2, ..RetryPolicy::default() });
        let mut quarantined = 0;
        for s in 0..24 {
            let outcome = m.measure(&prog(s), &mut NoopRecorder);
            if let MeasureOutcome::Failure { attempts, .. } = outcome {
                assert_eq!(attempts, 3);
                quarantined += 1;
            }
        }
        let st = m.stats();
        assert!(quarantined > 0, "rate 0.9 must quarantine something in 24 programs");
        assert_eq!(st.quarantined, quarantined);
        assert!(st.failures >= 3 * quarantined, "each quarantine burns all attempts");
        assert_eq!(st.failures, st.retries + st.quarantined, "one extra failure per quarantine");
    }

    #[test]
    fn retry_backoff_grows_exponentially() {
        let mut m = faulty_measurer(0.9);
        m.set_retry_policy(RetryPolicy {
            max_retries: 3,
            backoff_base_s: 1.0,
            backoff_mult: 2.0,
            ..RetryPolicy::default()
        });
        // Find a program that exhausts all 4 attempts.
        for s in 0..64 {
            let before = m.stats().retry_backoff_s;
            if let MeasureOutcome::Failure { .. } = m.measure(&prog(s), &mut NoopRecorder) {
                let spent = m.stats().retry_backoff_s - before;
                // 1 + 2 + 4 seconds of backoff across 3 retries.
                assert_eq!(spent, 7.0);
                return;
            }
        }
        panic!("rate 0.9 never exhausted retries in 64 programs");
    }

    #[test]
    fn quarantined_outcome_is_cached_and_charges_nothing_again() {
        let mut m = faulty_measurer(0.9);
        for s in 0..64 {
            let p = prog(s);
            let first = m.measure(&p, &mut NoopRecorder);
            if !first.is_success() {
                let stats = m.stats();
                let again = m.measure(&p, &mut NoopRecorder);
                assert_eq!(first, again);
                assert_eq!(m.stats(), stats, "cached failure must not re-charge");
                return;
            }
        }
        panic!("rate 0.9 never quarantined in 64 programs");
    }

    #[test]
    fn fault_classes_are_counted_and_charged() {
        let mut m = faulty_measurer(0.5);
        for s in 0..200 {
            m.measure(&prog(s), &mut NoopRecorder);
        }
        let st = m.stats();
        assert!(st.failures > 0);
        assert_eq!(
            st.failures,
            st.compile_errors + st.timeouts + st.device_resets + st.outliers,
            "class counters must partition failures"
        );
        assert!(st.fault_time_s > 0.0);
        assert!(st.retry_backoff_s > 0.0);
        assert!(st.total_s() > st.measure_time_s + st.fault_time_s);
    }

    #[test]
    fn time_accounting_accumulates() {
        let mut m = measurer();
        m.measure(&prog(2), &mut NoopRecorder);
        m.charge_model_evals(512);
        m.charge_psa_evals(2048);
        m.charge_training(100, 10);
        m.charge_evolution(512);
        let s = m.stats();
        assert!(s.measure_time_s > 2.0, "compile dominates: {}", s.measure_time_s);
        assert!(s.model_time_s > 0.0 && s.psa_time_s > 0.0);
        assert!(s.total_s() > s.measure_time_s);
    }

    #[test]
    fn set_time_model_preserves_cache_and_stats() {
        let mut m = measurer();
        let p = prog(5);
        m.measure(&p, &mut NoopRecorder);
        let stats = m.stats();
        let time = TimeModel { compile_s: 10.0, ..TimeModel::default() };
        m.set_time_model(time);
        assert!(m.is_measured(&p), "swapping cost constants must not drop the cache");
        assert_eq!(m.stats(), stats, "swapping cost constants must not reset the ledger");
        assert_eq!(m.time_model().compile_s, 10.0);
    }

    #[test]
    fn wall_clock_is_excluded_from_equality() {
        let mut a = measurer();
        let mut b = measurer();
        a.measure(&prog(3), &mut NoopRecorder);
        b.measure(&prog(3), &mut NoopRecorder);
        a.record_wall(PipelineStage::Generate, 0.25);
        a.record_wall(PipelineStage::Psa, 0.5);
        a.record_wall(PipelineStage::Predict, 1.0);
        assert_eq!(a.stats(), b.stats(), "wall clock must not break determinism checks");
        assert_eq!(a.stats().wall, WallTimings { generate_s: 0.25, psa_s: 0.5, predict_s: 1.0 });
        assert_eq!(a.stats().pipeline_wall_s(), 1.75);
        assert_eq!(b.stats().pipeline_wall_s(), 0.0);
    }

    #[test]
    fn zero_max_retries_fails_fast_with_no_backoff() {
        let mut m = faulty_measurer(0.9);
        m.set_retry_policy(RetryPolicy { max_retries: 0, ..RetryPolicy::default() });
        for s in 0..64 {
            let attempts_before = m.attempts();
            let outcome = m.measure(&prog(s), &mut NoopRecorder);
            if let MeasureOutcome::Failure { attempts, .. } = outcome {
                assert_eq!(attempts, 1, "max_retries = 0 means a single attempt");
                assert_eq!(m.attempts() - attempts_before, 1, "no hidden extra attempts");
                let st = m.stats();
                assert_eq!(st.retries, 0, "fail-fast must never retry");
                assert_eq!(st.retry_backoff_s, 0.0, "no retries means no backoff charge");
                assert_eq!(st.quarantined, st.failures, "every failure quarantines directly");
                return;
            }
        }
        panic!("rate 0.9 never failed in 64 programs");
    }

    #[test]
    fn no_backoff_is_charged_after_the_final_failed_attempt() {
        // Backoff is charged *before* each retry, so a program that burns
        // max_retries = 2 (three attempts) is charged base·mult⁰ + base·mult¹
        // and nothing more: giving up is free. A fencepost bug that charges
        // backoff after the last attempt would add base·mult² here.
        let mut m = faulty_measurer(0.95);
        m.set_retry_policy(RetryPolicy {
            max_retries: 2,
            backoff_base_s: 1.0,
            backoff_mult: 3.0,
            ..RetryPolicy::default()
        });
        for s in 0..64 {
            let before = m.stats().retry_backoff_s;
            let outcome = m.measure(&prog(s), &mut NoopRecorder);
            if let MeasureOutcome::Failure { attempts, .. } = outcome {
                assert_eq!(attempts, 3);
                let spent = m.stats().retry_backoff_s - before;
                assert_eq!(spent, 1.0 + 3.0, "expected base·(1 + mult), got {spent}");
                return;
            }
        }
        panic!("rate 0.95 never exhausted retries in 64 programs");
    }

    /// Runs `m` until a program exhausts its retries and returns the
    /// backoff charged for it.
    fn first_exhausted_backoff<B: Backend>(m: &mut Measurer<B>) -> f64 {
        for s in 0..64 {
            let before = m.stats().retry_backoff_s;
            if let MeasureOutcome::Failure { .. } = m.measure(&prog(s), &mut NoopRecorder) {
                return m.stats().retry_backoff_s - before;
            }
        }
        panic!("fault rate never exhausted retries in 64 programs");
    }

    #[test]
    fn backoff_jitter_is_bounded_deterministic_and_seed_sensitive() {
        let policy = |jitter_seed: u64| RetryPolicy {
            max_retries: 3,
            backoff_base_s: 1.0,
            backoff_mult: 2.0,
            backoff_jitter: 0.25,
            jitter_seed,
            ..RetryPolicy::default()
        };
        let mut a = faulty_measurer(0.9);
        a.set_retry_policy(policy(7));
        let spent_a = first_exhausted_backoff(&mut a);
        // Bounds: 3 retries of base 1+2+4, each within ±25%.
        assert!(spent_a > 7.0 * 0.75 && spent_a < 7.0 * 1.25, "jitter out of bounds: {spent_a}");
        assert_ne!(spent_a, 7.0, "jitter 0.25 must perturb the exact schedule");

        let mut b = faulty_measurer(0.9);
        b.set_retry_policy(policy(7));
        assert_eq!(spent_a, first_exhausted_backoff(&mut b), "same seed, same ledger — bit-for-bit");

        let mut c = faulty_measurer(0.9);
        c.set_retry_policy(policy(8));
        assert_ne!(
            spent_a,
            first_exhausted_backoff(&mut c),
            "a different jitter seed must de-synchronize the retries"
        );
    }

    #[test]
    fn backoff_jitter_draw_is_pinned_to_the_documented_formula() {
        let policy = RetryPolicy {
            backoff_base_s: 1.0,
            backoff_mult: 2.0,
            backoff_jitter: 0.25,
            jitter_seed: 42,
            ..RetryPolicy::default()
        };
        // The charge for retry `attempt` at nonce `n` is exactly
        // base·mult^(attempt-1) · (1 + j·(2u-1)) with u drawn from a
        // ChaCha8 seeded by hashing (jitter_seed, nonce).
        use std::hash::{Hash, Hasher};
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        42u64.hash(&mut hasher);
        9u64.hash(&mut hasher);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(hasher.finish());
        let u: f64 = rng.gen();
        let expected = 2.0 * (1.0 + 0.25 * (2.0 * u - 1.0));
        assert_eq!(policy.backoff_s(2, 9), expected);
        // And jitter 0 is the exact historical schedule.
        let exact = RetryPolicy { backoff_jitter: 0.0, ..policy };
        assert_eq!(exact.backoff_s(2, 9), 1.0 * 2.0);
        assert_eq!(exact.backoff_s(1, 123), 1.0);
    }

    #[test]
    fn outlier_rejection_boundary_is_strictly_greater() {
        // Measure once fault-free to learn the deterministic dispersion of
        // the first attempt (nonce 0), then replay it against thresholds
        // pinned exactly at and just below that value.
        let mut probe = measurer();
        let (latency, variance) = match probe.measure(&prog(0), &mut NoopRecorder) {
            MeasureOutcome::Success { latency_s, variance } => (latency_s, variance),
            MeasureOutcome::Failure { .. } => panic!("fault-free measurement failed"),
        };
        let rel_std = variance.sqrt() / latency;
        assert!(rel_std > 0.0, "need nonzero dispersion to exercise the boundary");

        // Threshold exactly equal to the observed rel_std: `>` is strict,
        // so the timing is accepted.
        let mut at = measurer();
        at.set_retry_policy(RetryPolicy { outlier_rel_std: rel_std, ..RetryPolicy::default() });
        let out = at.measure(&prog(0), &mut NoopRecorder);
        assert!(out.is_success(), "rel_std equal to the threshold must pass");
        assert_eq!(out.latency(), Some(latency));
        assert_eq!(at.stats().outliers, 0);

        // Threshold just below: the same timing is now rejected on the
        // first attempt (retries re-measure under fresh nonces, so only
        // attempt 1 is pinned to the probe's dispersion).
        let mut below = measurer();
        below.set_retry_policy(RetryPolicy {
            max_retries: 0,
            outlier_rel_std: rel_std * (1.0 - 1e-12),
            ..RetryPolicy::default()
        });
        let out = below.measure(&prog(0), &mut NoopRecorder);
        assert!(!out.is_success(), "rel_std above the threshold must be rejected");
        assert_eq!(
            out,
            MeasureOutcome::Failure { kind: FaultKind::Outlier, attempts: 1 }
        );
        let st = below.stats();
        assert_eq!(st.outliers, 1);
        assert!(
            st.fault_time_s >= latency * below.time_model().repeats as f64,
            "a rejected outlier still pays for the device time it burned"
        );
    }

    #[test]
    fn measure_rec_emits_faults_and_quarantine_without_changing_outcomes() {
        use pruner_trace::TraceHandle;
        let mut plain = faulty_measurer(0.9);
        let mut traced = faulty_measurer(0.9);
        let mut trace = TraceHandle::new();
        for s in 0..24 {
            let p = prog(s);
            let a = plain.measure(&p, &mut NoopRecorder);
            let b = traced.measure(&p, &mut trace);
            assert_eq!(a, b, "recorder must not influence outcomes");
        }
        assert_eq!(plain.stats(), traced.stats());
        let st = traced.stats();
        let records = trace.records();
        let faults = records.iter().filter(|r| r.kind() == "fault").count() as u64;
        let quarantines = records.iter().filter(|r| r.kind() == "quarantine").count() as u64;
        assert_eq!(faults, st.failures, "one fault record per failed attempt");
        assert_eq!(quarantines, st.quarantined, "one quarantine record per give-up");
        let charged: f64 = records
            .iter()
            .filter(|r| r.kind() == "fault")
            .map(|r| r.get("charged_s").and_then(pruner_trace::Value::as_f64).unwrap())
            .sum();
        assert_eq!(charged, st.fault_time_s, "fault records must reconcile with the ledger");
    }

    #[test]
    fn measure_rec_counts_cache_hits() {
        use pruner_trace::TraceHandle;
        let mut m = measurer();
        let mut trace = TraceHandle::new();
        let p = prog(1);
        m.measure(&p, &mut trace);
        m.measure(&p, &mut trace);
        m.measure(&p, &mut trace);
        let jsonl = trace.to_jsonl();
        assert!(
            jsonl.contains("\"name\":\"measure.cache_hits\",\"value\":2"),
            "expected 2 cache hits in: {jsonl}"
        );
    }

    #[test]
    fn preseeded_outcome_is_free_and_never_overwrites() {
        let mut m = measurer();
        let p = prog(7);
        let seeded = MeasureOutcome::Success { latency_s: 4.2e-3, variance: 0.0 };
        assert!(m.preseed(p.dedup_key(), seeded));
        // The seeded verdict is served from cache: no trial, no nonce, no
        // simulated time.
        assert_eq!(m.measure(&p, &mut NoopRecorder), seeded);
        assert_eq!(m.stats().trials, 0);
        assert_eq!(m.attempts(), 0);
        assert_eq!(m.stats().measure_time_s, 0.0);
        // A live verdict wins over a later seed attempt.
        let live = m.measure(&prog(8), &mut NoopRecorder);
        assert!(!m.preseed(prog(8).dedup_key(), seeded));
        assert_eq!(m.cached_outcome(&prog(8)), Some(live));
    }

    #[test]
    fn psa_eval_cheaper_than_model_eval() {
        let t = TimeModel::default();
        assert!(t.psa_eval_s * 10.0 < t.model_eval_s);
    }

    #[test]
    fn trial_cost_matches_table3_scale() {
        // ~2000 trials should land in the paper's hours-scale ballpark.
        let mut m = measurer();
        let mut total_progs = 0;
        for s in 0..50 {
            m.measure(&prog(s), &mut NoopRecorder);
            total_progs += 1;
        }
        let per_trial = m.stats().measure_time_s / total_progs as f64;
        assert!((1.0..10.0).contains(&per_trial), "per-trial {per_trial}s out of band");
    }
}
