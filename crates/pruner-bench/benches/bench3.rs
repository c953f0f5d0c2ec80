//! Bench 3 — compute-core throughput: the register-blocked GEMM kernels and
//! fused graph ops under the verifier, and the candidate arena.
//!
//! Times the verifier's hot path (`predict_batch` over a 2,048-candidate
//! pool) and one online training step. Also pushes a full
//! million-candidate exploration round
//! (generate→dedup→PSA→featurize→predict) through the struct-of-arrays
//! candidate arena and holds it to a 1M candidates/second floor, after
//! asserting the round is bit-identical at 1 and 4 threads. Writes
//! machine-readable `BENCH_3.json` at the workspace root.
//!
//! `PRUNER_BENCH_SMOKE=1` shrinks the pools so CI can exercise the whole
//! harness in seconds (the throughput floor is not asserted then).

use pruner::cost::{CostModel, ModelKind, Sample};
use pruner::gpu::{GpuSpec, Simulator};
use pruner::ir::Workload;
use pruner::psa::Psa;
use pruner::sketch::{evolve, GeneBuf, HardwareLimits, Program, WorkloadCtx};
use pruner::trace::{NoopRecorder, Recorder, TraceHandle};
use pruner::tuner::{TunerConfig, TuningResult};
use pruner::Pruner;
use pruner_bench::{results_dir, TextTable};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

#[derive(Serialize)]
struct Bench3Result {
    pool: usize,
    threads: usize,
    repeats: usize,
    smoke: bool,
    blocked_predict_s: f64,
    blocked_train_step_s: f64,
    arena_pool: usize,
    arena_round_s: f64,
    arena_cands_per_s: f64,
    arena_unique: usize,
    arena_bit_identical: bool,
    trace_baseline_s: f64,
    trace_noop_s: f64,
    trace_enabled_s: f64,
    trace_disabled_overhead: f64,
    trace_enabled_overhead: f64,
}

fn smoke() -> bool {
    std::env::var("PRUNER_BENCH_SMOKE").map(|v| v == "1").unwrap_or(false)
}

/// Candidate pool shaped like one verify round: one task, many sampled
/// schedules, simulator-priced labels so the training step has targets.
fn candidate_pool(n: usize) -> Vec<Sample> {
    let limits = HardwareLimits::default();
    let sim = Simulator::new(GpuSpec::t4());
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let wl = Workload::matmul(1, 512, 512, 512);
    (0..n)
        .map(|_| {
            let p = Program::sample(&wl, &limits, &mut rng);
            let lat = sim.latency(&p);
            Sample::labeled(&p, lat, 0)
        })
        .collect()
}

/// One exploration round through the struct-of-arrays candidate arena:
/// GA offspring (3/4) + fresh random blood (1/4) → fingerprint dedup →
/// deferred stats fill → PSA shortlist to 2,048 → featurize → predict.
/// Mirrors the shape of `Task::propose` without the measure boundary.
/// Returns `(unique, picked fingerprints, predicted scores)` so callers
/// can compare runs for bit-identity.
#[allow(clippy::too_many_arguments)]
fn arena_round(
    ctx: &Arc<WorkloadCtx>,
    elites: &[GeneBuf],
    limits: &HardwareLimits,
    psa: &Psa,
    model: &dyn CostModel,
    n: usize,
    seed: u64,
    round: u64,
    threads: usize,
) -> (usize, Vec<u64>, Vec<f32>) {
    let ga = n * 3 / 4;
    let mut arena =
        evolve::next_generation_arena_par(ctx, elites, ga, limits, seed, round, threads);
    let fresh = evolve::init_arena_par(
        ctx,
        n - ga,
        limits,
        seed ^ 0xA076_1D64_78BD_642F,
        round,
        threads,
    );
    arena.append(&fresh);
    let mut seen = HashSet::new();
    arena.retain_with(|_, fp| seen.insert(fp));
    arena.ensure_stats();
    let picks = psa.prune_arena(&arena, 2048, threads);
    let fps: Vec<u64> = picks.iter().map(|&i| arena.fingerprint(i)).collect();
    let samples: Vec<Sample> =
        picks.iter().map(|&i| Sample::from_arena(&arena, i, 0)).collect();
    let scores = model.predict_batch(&samples, threads);
    (arena.len(), fps, scores)
}

/// Best-of-`repeats` wall time for `f`, with the result of the last run.
fn best_of<T>(repeats: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..repeats.max(1) {
        let t0 = Instant::now();
        let v = f();
        best = best.min(t0.elapsed().as_secs_f64());
        out = Some(v);
    }
    (best, out.unwrap())
}

fn main() {
    let pool = if smoke() { 256 } else { 2048 };
    let repeats = if smoke() { 1 } else { 3 };
    // Thread count honors the host: banding GEMMs across more workers than
    // cores only adds scheduling overhead (results are bit-identical at any
    // count, so this is purely a wall-clock choice).
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let samples = candidate_pool(pool);

    let model = ModelKind::Pacm.build(3);

    // --- predict_batch: the verify stage's inner loop ---
    let (blocked_predict_s, _) = best_of(repeats, || model.predict_batch(&samples, threads));

    // --- one training step (the per-round model update) ---
    let mut trained = ModelKind::Pacm.build(5);
    let (blocked_train_step_s, _) = best_of(1, || trained.fit_batch(&samples, 1, threads));

    // --- million-candidate arena round ---
    // The whole generate→dedup→PSA→featurize→predict pipeline through the
    // struct-of-arrays arena, at the pool size one desktop-CPU exploration
    // round actually sees. Bit-identity across thread counts is asserted
    // first (same seed, threads 1 vs 4), then the throughput run is timed
    // at the host's parallelism, best-of-`repeats` after one untimed round.
    // Every round here builds its pool in fresh arenas (the `_arena_par`
    // wrappers allocate), so each timed round still pays the allocation
    // and first-touch page faults of its columns; the untimed round only
    // warms code, caches and the allocator. A campaign pays those once —
    // it reuses one arena — so this number is a floor on its pool stage.
    let arena_pool = if smoke() { 4096 } else { 1 << 20 };
    let wl = Workload::matmul(1, 512, 512, 512);
    let ctx = Arc::new(WorkloadCtx::new(&wl));
    let limits = HardwareLimits::default();
    let mut elite_rng = ChaCha8Rng::seed_from_u64(9);
    let elites: Vec<GeneBuf> =
        (0..16).map(|_| ctx.sample_genes(&limits, &mut elite_rng)).collect();
    let psa = Psa::new(GpuSpec::t4());
    let arena_model = ModelKind::Pacm.build(3);

    let run = |seed: u64, t: usize| {
        arena_round(&ctx, &elites, &limits, &psa, &*arena_model, arena_pool, seed, 1, t)
    };
    let (u1, fps1, s1) = run(2, 1);
    let (u4, fps4, s4) = run(2, 4);
    let arena_bit_identical = u1 == u4
        && fps1 == fps4
        && s1.len() == s4.len()
        && s1.iter().zip(&s4).all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(arena_bit_identical, "arena round differs between 1 and 4 threads");

    let _warm = run(3, threads); // untimed: code, caches, allocator (not the columns)
    let mut arena_round_s = f64::INFINITY;
    let mut arena_unique = 0;
    for r in 0..repeats as u64 {
        let t0 = Instant::now();
        let (uniq, _, _) = run(4 + r, threads);
        arena_round_s = arena_round_s.min(t0.elapsed().as_secs_f64());
        arena_unique = uniq;
    }
    let arena_cands_per_s = arena_pool as f64 / arena_round_s;

    // --- trace recorder overhead: observability must be free when off ---
    // Three variants of the same quick campaign: no recorder installed (the
    // default no-op), an explicitly installed `NoopRecorder` (the "disabled"
    // path the hot loop always pays for), and a live `TraceHandle`.
    let dim = if smoke() { 256 } else { 512 };
    let trace_campaign = |recorder: Option<Box<dyn Recorder>>| -> TuningResult {
        let mut builder = Pruner::builder(GpuSpec::t4())
            .workload(Workload::matmul(1, dim, dim, dim))
            .config(TunerConfig::quick())
            .seed(7);
        if let Some(rec) = recorder {
            builder = builder.recorder(rec);
        }
        builder.build().tune()
    };
    let trace_repeats = 5;
    let _warmup = trace_campaign(None); // page in the campaign path before timing
    let (trace_baseline_s, base_run) = best_of(trace_repeats, || trace_campaign(None));
    let (trace_noop_s, noop_run) =
        best_of(trace_repeats, || trace_campaign(Some(Box::new(NoopRecorder))));
    let (trace_enabled_s, traced_run) =
        best_of(trace_repeats, || trace_campaign(Some(Box::new(TraceHandle::new()))));
    assert!(
        base_run.best_latency_s.to_bits() == noop_run.best_latency_s.to_bits()
            && base_run.best_latency_s.to_bits() == traced_run.best_latency_s.to_bits()
            && base_run.curve == noop_run.curve
            && base_run.curve == traced_run.curve,
        "installing a recorder changed the campaign result"
    );
    let trace_disabled_overhead = trace_noop_s / trace_baseline_s - 1.0;
    let trace_enabled_overhead = trace_enabled_s / trace_baseline_s - 1.0;
    // <2% relative, with a small absolute floor so a sub-millisecond timing
    // wobble on the smoke campaign cannot fail the run.
    assert!(
        trace_disabled_overhead < 0.02 || trace_noop_s - trace_baseline_s < 0.005,
        "disabled recorder overhead {:.2}% exceeds the 2% ceiling \
         (baseline {trace_baseline_s:.4}s, noop {trace_noop_s:.4}s)",
        trace_disabled_overhead * 100.0
    );

    let mut table = TextTable::new(&["stage", "best (s)"]);
    table.row(vec![format!("predict_batch x{pool}"), format!("{blocked_predict_s:.4}")]);
    table.row(vec!["train_step".into(), format!("{blocked_train_step_s:.4}")]);
    println!("Bench 3 — compute core ({pool} candidates, {threads} threads)\n");
    table.print();

    let mut arena_table =
        TextTable::new(&["arena round", "pool", "unique", "best (s)", "cand/s"]);
    arena_table.row(vec![
        "generate→dedup→PSA→featurize→predict".into(),
        format!("{arena_pool}"),
        format!("{arena_unique}"),
        format!("{arena_round_s:.3}"),
        format!("{arena_cands_per_s:.0}"),
    ]);
    println!("\nMillion-candidate arena round ({threads} threads, bit-identical across 1/4 threads: {arena_bit_identical})\n");
    arena_table.print();

    let mut trace_table =
        TextTable::new(&["campaign recorder", "best of 5 (s)", "overhead"]);
    trace_table.row(vec!["none (baseline)".into(), format!("{trace_baseline_s:.4}"), "-".into()]);
    trace_table.row(vec![
        "noop (disabled)".into(),
        format!("{trace_noop_s:.4}"),
        format!("{:+.2}%", trace_disabled_overhead * 100.0),
    ]);
    trace_table.row(vec![
        "trace (enabled)".into(),
        format!("{trace_enabled_s:.4}"),
        format!("{:+.2}%", trace_enabled_overhead * 100.0),
    ]);
    println!("\nTrace recorder overhead (quick campaign, {dim}^3 matmul)\n");
    trace_table.print();

    let result = Bench3Result {
        pool,
        threads,
        repeats,
        smoke: smoke(),
        blocked_predict_s,
        blocked_train_step_s,
        arena_pool,
        arena_round_s,
        arena_cands_per_s,
        arena_unique,
        arena_bit_identical,
        trace_baseline_s,
        trace_noop_s,
        trace_enabled_s,
        trace_disabled_overhead,
        trace_enabled_overhead,
    };
    let path = results_dir().parent().expect("workspace root").join("BENCH_3.json");
    let file = std::fs::File::create(&path).expect("create BENCH_3.json");
    serde_json::to_writer_pretty(std::io::BufWriter::new(file), &result)
        .expect("serialize BENCH_3.json");
    println!("\n[results written to {}]", path.display());

    // Smoke runs only check the harness end to end; the full run holds the
    // arena to its headline number.
    if !smoke() {
        assert!(
            arena_cands_per_s >= 1_000_000.0,
            "arena round throughput {arena_cands_per_s:.0} cand/s fell below the \
             1M/s floor (pool {arena_pool}, {arena_round_s:.3}s)"
        );
    }
}
