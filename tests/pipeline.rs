//! Integration: the full draft-then-verify pipeline across every crate.

use pruner::cost::{ModelKind, Sample};
use pruner::gpu::{GpuSpec, Simulator};
use pruner::ir::Workload;
use pruner::psa::Psa;
use pruner::sketch::evolve;
use pruner::tuner::TunerConfig;
use pruner::Pruner;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The core pipeline claim, end to end: drafting with PSA and verifying
/// with a trained PaCM finds better programs than either alone, under the
/// same measurement budget.
#[test]
fn draft_then_verify_beats_random_search() {
    let spec = GpuSpec::t4();
    let sim = Simulator::new(spec.clone());
    let limits = spec.limits();
    let wl = Workload::matmul(1, 1024, 1024, 1024);
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let budget = 24;

    // Random search: measure `budget` random programs.
    let random_best = (0..budget)
        .map(|_| sim.latency(&pruner::sketch::Program::sample(&wl, &limits, &mut rng)))
        .fold(f64::INFINITY, f64::min);

    // Draft: PSA prunes 1024 candidates to 64.
    let psa = Psa::new(spec);
    let pool = evolve::init_population(&wl, 1024, &limits, &mut rng);
    let target = psa.prune(pool, 64);

    // Verify: PaCM trained on a handful of measurements ranks the target
    // space; measure its top picks.
    let mut model = ModelKind::Pacm.build(1);
    let train: Vec<Sample> = target
        .iter()
        .take(12)
        .map(|p| Sample::labeled(p, sim.latency(p), 0))
        .collect();
    model.fit_batch(&train, 20, 1);
    let rest: Vec<&pruner::sketch::Program> = target.iter().skip(12).collect();
    let samples: Vec<Sample> = rest.iter().map(|p| Sample::unlabeled(p, 0)).collect();
    let scores = model.predict_batch(&samples, 1);
    let mut idx: Vec<usize> = (0..rest.len()).collect();
    idx.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).unwrap());
    let pipeline_best = idx
        .iter()
        .take(budget - 12)
        .map(|&i| sim.latency(rest[i]))
        .fold(f64::INFINITY, f64::min)
        .min(train.iter().map(|s| s.latency).fold(f64::INFINITY, f64::min));

    assert!(
        pipeline_best <= random_best,
        "pipeline {pipeline_best} should beat random {random_best}"
    );
}

/// The facade runs a complete campaign over a mixed network and reports a
/// consistent result object.
#[test]
fn facade_campaign_is_consistent() {
    let mut net = pruner::ir::Network::new("mixed");
    net.add(Workload::matmul(1, 256, 256, 256), 2);
    net.add(Workload::conv2d(1, 32, 28, 28, 32, 3, 1, 1), 1);
    net.add(Workload::elementwise(pruner::ir::EwKind::Relu, 1 << 16), 3);
    let result = Pruner::builder(GpuSpec::t4())
        .network(&net)
        .config(TunerConfig::quick())
        .seed(3)
        .build()
        .tune();

    // The weighted best must equal the weighted sum of per-task bests.
    let manual: f64 = result
        .per_task_best
        .iter()
        .zip(net.subgraphs())
        .map(|((wl, lat), sg)| {
            assert_eq!(*wl, sg.workload);
            sg.weight as f64 * lat
        })
        .sum();
    assert!((manual - result.best_latency_s).abs() < 1e-12);

    // The curve must end at the final result and be non-increasing.
    let pts = result.curve.points();
    assert_eq!(pts.last().unwrap().best_latency_s, result.best_latency_s);
    assert!(pts.windows(2).all(|w| w[1].best_latency_s <= w[0].best_latency_s + 1e-15));
    // Search-time ledger must be self-consistent.
    assert!(result.stats.total_s() >= result.stats.measure_time_s);
    assert_eq!(pts.last().unwrap().trials, result.stats.trials);
}

/// PSA ablations plug into the full campaign (Table 4/5 plumbing).
#[test]
fn psa_ablation_plumbs_through_builder() {
    let cfg = TunerConfig::quick();
    let result = Pruner::builder(GpuSpec::t4())
        .workload(Workload::matmul(1, 256, 256, 256))
        .config(cfg)
        .psa_config(pruner::psa::PsaConfig::without_compute())
        .seed(4)
        .build()
        .tune();
    assert!(result.best_latency_s.is_finite());
}
