//! Integration: smoke-scale versions of the paper's headline claims.
//!
//! These are the experiment benches in miniature — cheap enough for CI,
//! strong enough that a regression in any component (sketch diversity,
//! simulator signal, PSA penalties, PaCM learning, MTL stability) trips at
//! least one of them.

use pruner::cost::metrics::{best_k, spearman, SpaceEval};
use pruner::cost::{CostModel, ModelKind, Sample};
use pruner::dataset::Dataset;
use pruner::gpu::{GpuSpec, Simulator};
use pruner::ir::{zoo, Workload};
use pruner::psa::Psa;
use pruner::sketch::evolve;
use pruner::tuner::{pretrain_pacm, ModelSetup, Tuner, TunerConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Table 1 in miniature: the PSA target space preserves better programs
/// than random sampling of equal size.
#[test]
fn claim_target_space_beats_random() {
    let spec = GpuSpec::t4();
    let sim = Simulator::new(spec.clone());
    let psa = Psa::new(spec.clone());
    let limits = spec.limits();
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let mut target_spaces = Vec::new();
    let mut random_spaces = Vec::new();
    for wl in [
        Workload::matmul(1, 1024, 1024, 1024),
        Workload::conv2d(1, 64, 28, 28, 64, 3, 1, 1),
        Workload::matmul(1, 512, 2048, 512),
    ] {
        let pool = evolve::init_population(&wl, 768, &limits, &mut rng);
        let lats: Vec<f64> = pool.iter().map(|p| sim.latency(p)).collect();
        let optimum = lats.iter().cloned().fold(f64::INFINITY, f64::min);
        let target = psa.prune(pool.clone(), 96);
        target_spaces.push(SpaceEval {
            weight: 1,
            full_optimum: optimum,
            space_latencies: target.iter().map(|p| sim.latency(p)).collect(),
        });
        random_spaces.push(SpaceEval {
            weight: 1,
            full_optimum: optimum,
            space_latencies: lats[..96].to_vec(),
        });
    }
    let t = best_k(&target_spaces, 1);
    let r = best_k(&random_spaces, 1);
    assert!(t >= r, "target space Best-1 {t} must be at least random {r}");
    assert!(t > 0.9, "target space should nearly preserve the optimum, got {t}");
}

/// Table 2 in miniature: a trained PaCM ranks unseen schedules of a held
/// -out task better than chance.
#[test]
fn claim_pacm_generalizes_to_unseen_task() {
    let ds = Dataset::generate(
        &GpuSpec::t4(),
        &[zoo::bert_tiny(1, 128), zoo::mobilenet_v2(1)],
        24,
        3,
    );
    let (train, test) = ds.split(0.75, 1);
    assert!(!test.is_empty());
    let mut model = ModelKind::Pacm.build(2);
    model.fit_batch(&train, 12, 1);
    // Spearman of score vs negative latency per held-out task, averaged.
    let mut rhos = Vec::new();
    let tasks: std::collections::BTreeSet<usize> = test.iter().map(|s| s.task_id).collect();
    for task in tasks {
        let subset: Vec<Sample> =
            test.iter().filter(|s| s.task_id == task).cloned().collect();
        if subset.len() < 8 {
            continue;
        }
        let scores: Vec<f64> =
            model.predict_batch(&subset, 1).iter().map(|&v| v as f64).collect();
        let neg: Vec<f64> = subset.iter().map(|s| -s.latency).collect();
        rhos.push(spearman(&scores, &neg));
    }
    let mean = rhos.iter().sum::<f64>() / rhos.len() as f64;
    assert!(mean > 0.25, "mean held-out Spearman too low: {mean:.3} over {} tasks", rhos.len());
}

/// Figures 8/10 in miniature: under an equal budget, Pruner's campaign
/// ends at least as fast as Ansor's, and PSA + PaCM reach Ansor's final
/// latency in less search time.
#[test]
fn claim_pruner_campaign_dominates_ansor() {
    let net = {
        let mut n = pruner::ir::Network::new("mini");
        n.add(Workload::matmul(1, 1024, 1024, 1024), 1);
        n.add(Workload::conv2d(1, 64, 28, 28, 64, 3, 1, 1), 2);
        n
    };
    // Seed 7 is a representative draw (Pruner ~2x faster to parity); at
    // this smoke-test budget (160 trials) individual seeds are noisy, so
    // the assertion tolerance is loose — the bench harness averages over
    // networks for the real Figure 10 numbers.
    let cfg = TunerConfig {
        rounds: 20,
        measure_per_round: 8,
        space_size: 128,
        target_pool: 512,
        seed: 7,
        ..TunerConfig::default()
    };
    let run = |use_psa: bool, kind: ModelKind| {
        let mut c = cfg;
        c.use_psa = use_psa;
        let mut t = Tuner::new(GpuSpec::t4(), c, ModelSetup::Fresh(kind));
        t.add_network(&net);
        t.run()
    };
    let ansor = run(false, ModelKind::Ansor);
    let pruner = run(true, ModelKind::Pacm);
    assert!(
        pruner.best_latency_s <= ansor.best_latency_s * 1.05,
        "pruner {} should at least match ansor {}",
        pruner.best_latency_s,
        ansor.best_latency_s
    );
    let parity = pruner.curve.time_to_reach(ansor.best_latency_s);
    assert!(parity.is_some(), "pruner never reached ansor's final latency");
    assert!(
        parity.unwrap() <= ansor.stats.total_s(),
        "no search-time saving: {} vs {}",
        parity.unwrap(),
        ansor.stats.total_s()
    );
}

/// §2.5 in miniature: MTL fine-tuning does not collapse — after several
/// rounds the Siamese model still ranks its pre-training platform well,
/// while the target adapts to the new one.
#[test]
fn claim_mtl_is_stable() {
    let k80 = Dataset::generate(&GpuSpec::k80(), &[zoo::bert_tiny(1, 128)], 24, 7);
    let pre = pretrain_pacm(&k80.to_samples(), 10, 1);
    let probe = k80.to_samples();
    let rho_of = |m: &mut dyn CostModel| {
        let scores: Vec<f64> = m.predict_batch(&probe, 1).iter().map(|&v| v as f64).collect();
        let neg: Vec<f64> = probe.iter().map(|s| -s.latency).collect();
        spearman(&scores, &neg)
    };
    let before = rho_of(pre.clone_box().as_mut());

    let t4 = Dataset::generate(&GpuSpec::t4(), &[zoo::bert_tiny(1, 128)], 24, 8);
    let mut mtl = pruner::tuner::Mtl::with_paper_momentum(pre);
    for _ in 0..6 {
        let _target = mtl.round(&t4.to_samples(), 2, 1);
    }
    let mut siamese = mtl.siamese().clone();
    let after = rho_of(&mut siamese);
    assert!(
        after > before - 0.15,
        "siamese collapsed on its source platform: {before:.3} -> {after:.3}"
    );
}
