//! Integration: every layer of the stack is reproducible given a seed.

use pruner::cost::ModelKind;
use pruner::dataset::Dataset;
use pruner::gpu::{GpuSpec, Simulator};
use pruner::ir::{zoo, Workload};
use pruner::tuner::TunerConfig;
use pruner::Pruner;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

#[test]
fn sampling_and_simulation_reproduce() {
    let spec = GpuSpec::titan_v();
    let sim = Simulator::new(spec.clone());
    let limits = spec.limits();
    let wl = Workload::conv2d(1, 64, 56, 56, 64, 3, 1, 1);
    let run = || {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        (0..20)
            .map(|i| {
                let p = pruner::sketch::Program::sample(&wl, &limits, &mut rng);
                (sim.latency(&p), sim.measure(&p, i))
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

#[test]
fn dataset_generation_reproduces_across_calls() {
    let a = Dataset::generate(&GpuSpec::k80(), &[zoo::bert_tiny(1, 64)], 10, 5);
    let b = Dataset::generate(&GpuSpec::k80(), &[zoo::bert_tiny(1, 64)], 10, 5);
    assert_eq!(a.num_programs(), b.num_programs());
    for (ea, eb) in a.entries.iter().zip(&b.entries) {
        assert_eq!(ea.latencies, eb.latencies);
        assert_eq!(ea.programs, eb.programs);
    }
}

#[test]
fn model_training_reproduces() {
    let ds = Dataset::generate(&GpuSpec::t4(), &[zoo::bert_tiny(1, 64)], 10, 5);
    let samples = ds.to_samples();
    let train = |seed: u64| {
        let mut m = ModelKind::Pacm.build(seed);
        m.fit_batch(&samples, 4, 1);
        m.predict_batch(&samples, 1)
    };
    assert_eq!(train(9), train(9));
    assert_ne!(train(9), train(10), "different seeds must differ");
}

#[test]
fn full_campaign_reproduces() {
    let run = || {
        Pruner::builder(GpuSpec::a100())
            .workload(Workload::matmul(1, 512, 512, 512))
            .config(TunerConfig::quick())
            .seed(11)
            .build()
            .tune()
    };
    let a = run();
    let b = run();
    assert_eq!(a.best_latency_s, b.best_latency_s);
    assert_eq!(a.curve, b.curve);
    assert_eq!(a.stats, b.stats);
}
