//! Layer replay: rebuilds one round's inputs at a workload's pool, space
//! and window sizes and times each layer's public function directly.
//!
//! These numbers are *replay* numbers — same sizes, same call, but outside
//! the campaign — not in-campaign self time. They exist to say which layer
//! a change moved; the `tuner.*` phase spans say how much of a real
//! campaign that layer is.

use crate::host::{median, time_median};
use crate::layers::{self as sys, GemmKind};
use crate::report::Report;
use std::path::Path;
use std::time::Instant;

/// Sizes one round of a workload runs at.
#[derive(Clone)]
pub struct ReplayShape {
    /// Platform.
    pub spec: sys::GpuSpec,
    /// The (primary) operator.
    pub workload: sys::Workload,
    /// `TunerConfig::target_pool`.
    pub pool: usize,
    /// `TunerConfig::space_size`.
    pub space: usize,
    /// `TunerConfig::epsilon`.
    pub epsilon: f64,
    /// Training window at the end of the campaign.
    pub window: usize,
    /// `TunerConfig::train_epochs`.
    pub epochs: usize,
    /// `TunerConfig::mtl_epochs`.
    pub mtl_epochs: usize,
    /// Worker threads.
    pub threads: usize,
}

impl ReplayShape {
    /// The shape of a campaign with `config` on `workload`.
    pub fn of(
        spec: &sys::GpuSpec,
        workload: &sys::Workload,
        config: &sys::TunerConfig,
        threads: usize,
    ) -> ReplayShape {
        ReplayShape {
            spec: spec.clone(),
            workload: workload.clone(),
            pool: config.target_pool.max(config.space_size),
            space: config.space_size,
            epsilon: config.epsilon,
            window: (config.rounds * config.measure_per_round + 1).min(config.train_window),
            epochs: config.train_epochs,
            mtl_epochs: config.mtl_epochs,
            threads,
        }
    }
}

const REPS: usize = 5;

/// The draft-then-verify pipeline of one round, layer by layer.
pub fn pipeline(shape: &ReplayShape, seed: u64, out: &mut Report) {
    let threads = shape.threads;
    let limits = sys::limits(&shape.spec);
    let ctx = sys::workload_ctx(&shape.workload);
    let elites = sys::sample_elites(&ctx, &limits, 32, seed);

    // sketch: generate (¾ offspring + ¼ fresh), dedup, deferred stats.
    // Dedup consumes its input and `ensure_stats` only works once per
    // arena, so every rep runs the three calls on a fresh pool.
    let (mut gen_times, mut dedup_times, mut stats_times) = (Vec::new(), Vec::new(), Vec::new());
    let (mut generated, mut kept) = (0, 0);
    let mut arena = None;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let mut pool = sys::generate(&ctx, &elites, shape.pool, &limits, seed, 1, threads);
        let t1 = Instant::now();
        generated = sys::arena_len(&pool);
        let t2 = Instant::now();
        kept = sys::dedup(&mut pool);
        let t3 = Instant::now();
        sys::ensure_stats(&mut pool);
        let t4 = Instant::now();
        gen_times.push((t1 - t0).as_secs_f64());
        dedup_times.push((t3 - t2).as_secs_f64());
        stats_times.push((t4 - t3).as_secs_f64());
        arena = Some(pool);
    }
    let arena = arena.expect("at least one rep");
    out.put(
        "sketch.generate_cands_per_s",
        generated as f64 / median(&gen_times),
    );
    out.put(
        "sketch.dedup_cands_per_s",
        generated as f64 / median(&dedup_times),
    );
    out.put(
        "sketch.dedup_keep_ratio",
        kept as f64 / generated.max(1) as f64,
    );
    out.put(
        "sketch.stats_rows_per_s",
        kept as f64 / median(&stats_times),
    );

    // psa: draft the pool down to the (1-ε) share of the space.
    let n_random = (shape.space as f64 * shape.epsilon).round() as usize;
    let n_target = shape.space.saturating_sub(n_random).min(kept);
    let psa = sys::psa_new(&shape.spec);
    let (psa_s, shortlist) = time_median(REPS, || sys::psa_prune(&psa, &arena, n_target, threads));
    out.put("psa.prune_cands_per_s", kept as f64 / psa_s);
    out.put(
        "psa.keep_ratio",
        shortlist.len() as f64 / kept.max(1) as f64,
    );

    // features + cost: verify the shortlist (plus the ε extras' worth).
    let picks: Vec<usize> = shortlist
        .iter()
        .copied()
        .chain((0..kept).filter(|i| !shortlist.contains(i)).take(n_random))
        .collect();
    let (feat_s, samples) = time_median(REPS, || sys::featurize(&arena, &picks));
    out.put("features.samples_per_s", picks.len() as f64 / feat_s);
    let model = sys::pacm(seed);
    let (pred_s, _) = time_median(REPS, || sys::predict(&model, &samples, threads));
    out.put("cost.predict_samples_per_s", picks.len() as f64 / pred_s);

    // The paper's premise is a draft ~20x cheaper than the verifier
    // (TimeModel: 20 us vs 400 us per candidate). Sanity columns only.
    let psa_per_cand = psa_s / kept.max(1) as f64;
    let verify_per_cand = (feat_s + pred_s) / picks.len().max(1) as f64;
    let time = sys::time_model();
    out.put(
        "psa.draft_verify_cost_ratio",
        verify_per_cand / psa_per_cand,
    );
    out.put("tuner.sim_host_ratio_psa", time.psa_eval_s / psa_per_cand);
    out.put(
        "tuner.sim_host_ratio_model",
        time.model_eval_s / verify_per_cand,
    );

    // cost: one round's fit at the final training window.
    let sim = sys::simulator(&shape.spec);
    let window_programs =
        sys::sample_programs(&shape.workload, &limits, shape.window, seed ^ 0x5EED);
    let labeled = sys::label(&window_programs, &sim);
    let (fit_s, _) = time_median(3, || {
        let mut fresh = sys::pacm(seed);
        sys::fit(&mut fresh, &labeled, shape.epochs, threads)
    });
    out.put("cost.fit_round_ms", fit_s * 1e3);
    out.put(
        "cost.fit_samples_per_s",
        (shape.window * shape.epochs) as f64 / fit_s,
    );
    let (mtl_s, _) = time_median(3, || {
        let mut mtl = sys::mtl_new(sys::pacm(seed));
        sys::mtl_round(&mut mtl, &labeled, shape.mtl_epochs, threads)
    });
    out.put("tuner.mtl_round_ms", mtl_s * 1e3);

    // gpu: the analytical measurement itself.
    let (sim_s, _) = time_median(REPS, || {
        window_programs
            .iter()
            .map(|p| sys::sim_latency(&sim, p))
            .sum::<f64>()
    });
    out.put(
        "gpu.sim_latency_per_s",
        window_programs.len() as f64 / sim_s,
    );

    gemm(shape, out);
}

/// nn: PaCM's three largest GEMMs at this window — the statement
/// encoder's hidden layer forward (NN), its input gradient (NT) and its
/// weight gradient (TN), `rows = window x MAX_STMTS`, width 128. Each is
/// `rows·128·128` multiply-adds.
fn gemm(shape: &ReplayShape, out: &mut Report) {
    let rows = shape.window * 8;
    let width = 128;
    let act: Vec<f32> = (0..rows * width)
        .map(|i| (i % 17) as f32 * 0.25 - 2.0)
        .collect();
    let weight: Vec<f32> = (0..width * width)
        .map(|i| (i % 13) as f32 * 0.125 - 0.75)
        .collect();
    let mut tall = vec![0.0f32; rows * width];
    let mut square = vec![0.0f32; width * width];
    let mut seconds = 0.0;
    for kind in [GemmKind::Nn, GemmKind::Nt, GemmKind::Tn] {
        let (s, ()) = time_median(REPS, || match kind {
            GemmKind::Nn | GemmKind::Nt => sys::gemm(
                kind,
                &act,
                &weight,
                &mut tall,
                (rows, width, width),
                shape.threads,
            ),
            GemmKind::Tn => sys::gemm(
                kind,
                &act,
                &act,
                &mut square,
                (width, rows, width),
                shape.threads,
            ),
        });
        seconds += s;
    }
    std::hint::black_box((&tall, &square));
    // Computed operation count over measured time, not a hardware counter.
    let flops = 3.0 * 2.0 * (rows * width * width) as f64;
    out.put("nn.gemm_gflops", flops / seconds / 1e9);
}

/// tuner + json: checkpoint write and read of a real campaign state —
/// `campaign` (ten rounds of the workload) run to its end, then parked.
/// The loader is timed once: it is seconds long today.
pub fn checkpoint(campaign: &sys::Campaign, threads: usize, dir: &Path, out: &mut Report) {
    let mut tuner = sys::build_tuner(campaign.builder(threads));
    sys::drive(&mut tuner, &mut crate::host::Obs::new(false))
        .expect("the short campaign completes");
    let path = dir.join("replay-checkpoint.json");
    let (save_s, _) = time_median(3, || {
        let ckpt = sys::park(&tuner);
        sys::checkpoint_save(&ckpt, &path).expect("checkpoint save")
    });
    out.put("tuner.checkpoint_save_ms", save_s * 1e3);
    let text = std::fs::read_to_string(&path).expect("checkpoint file");
    out.put("tuner.checkpoint_bytes", text.len() as f64);
    let (load_s, _) = time_median(1, || {
        sys::checkpoint_load(&path)
            .map(|t| sys::num_tasks(&t))
            .expect("checkpoint load")
    });
    out.put("tuner.checkpoint_load_ms", load_s * 1e3);
    let (parse_s, fields) = time_median(1, || sys::json_parse(&text));
    assert!(fields > 0, "checkpoint document must parse");
    out.put("json.parse_mb_per_s", text.len() as f64 / 1e6 / parse_s);
    let ckpt = sys::park(&tuner);
    let (write_s, written) = time_median(3, || sys::json_write(&ckpt).len());
    out.put("json.write_mb_per_s", written as f64 / 1e6 / write_s);
    let _ = std::fs::remove_file(&path);
}

/// store: append, flush and open at `prefill + fresh` records.
pub fn store(
    spec: &sys::GpuSpec,
    prefill: usize,
    fresh: usize,
    seed: u64,
    dir: &Path,
    out: &mut Report,
) {
    let path = dir.join("replay-store.jsonl");
    let records = sys::foreign_records(spec, prefill + fresh, seed);
    let (base, extra) = records.split_at(prefill);
    let mut append_times = Vec::new();
    let mut flush_times = Vec::new();
    for _ in 0..3 {
        let _ = std::fs::remove_file(&path);
        let mut store = sys::store_open(&path).expect("store open");
        sys::store_append(&mut store, base);
        let t0 = Instant::now();
        let appended = sys::store_append(&mut store, extra);
        append_times.push(t0.elapsed().as_secs_f64());
        assert_eq!(appended, fresh, "replay records are distinct");
        let t0 = Instant::now();
        sys::store_flush(&store).expect("store flush");
        flush_times.push(t0.elapsed().as_secs_f64());
    }
    out.put("store.append_per_s", fresh as f64 / median(&append_times));
    out.put("store.flush_ms", median(&flush_times) * 1e3);
    let (open_s, len) = time_median(3, || {
        sys::store_len(&sys::store_open(&path).expect("store open"))
    });
    assert_eq!(len, prefill + fresh, "every flushed record reloads");
    out.put("store.open_records_per_s", len as f64 / open_s);
    let _ = std::fs::remove_file(&path);
}

/// serve: the wire codec on a 64-program `PredictOnly` line, and how well
/// a batcher coalesces two threads' back-to-back requests.
pub fn serve_codec(spec: &sys::GpuSpec, workload: &sys::Workload, seed: u64, out: &mut Report) {
    let programs = sys::sample_programs(workload, &sys::limits(spec), 64, seed);
    let request = sys::predict_request(&programs);
    let (encode_s, line) = time_median(21, || sys::wire_encode(&request));
    out.put("serve.wire_encode_us", encode_s * 1e6);
    let (parse_s, ok) = time_median(21, || sys::wire_parse(&line));
    assert!(ok, "the encoded line parses back");
    out.put("serve.wire_parse_us", parse_s * 1e6);

    let batcher = sys::batcher_new(sys::named_pacm(), 1);
    let samples = sys::featurize_programs(&programs);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                for _ in 0..100 {
                    std::hint::black_box(sys::batcher_predict(&batcher, samples.clone()));
                }
            });
        }
    });
    let (batches, requests) = sys::batcher_stats(&batcher);
    out.put(
        "serve.batch_coalesce",
        requests as f64 / batches.max(1) as f64,
    );
}

/// facade: `PrunerBuilder::build` on the 37-task network.
pub fn facade_build(out: &mut Report) {
    let campaign = sys::Campaign::plain(
        sys::spec_a100(),
        sys::Tasks::Net(sys::mobilenet_v2()),
        sys::default_config(),
    );
    let (build_s, tasks) = time_median(REPS, || sys::build_only(campaign.builder(1)));
    assert!(tasks > 30, "the network keeps its tasks");
    out.put("facade.build_ms", build_s * 1e3);
}
