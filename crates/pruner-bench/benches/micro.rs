//! Criterion micro-benchmarks of the stack's hot kernels: schedule
//! sampling, statistics derivation, PSA estimation, simulator pricing,
//! feature extraction and cost-model inference.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use pruner::cost::{ModelKind, Sample};
use pruner::gpu::{GpuSpec, Simulator};
use pruner::ir::Workload;
use pruner::psa::Psa;
use pruner::sketch::{evolve, CandidateArena, HardwareLimits, Program};
use pruner::trace::NoopRecorder;
use pruner::tuner::{Measurer, ProposeParams, TaskTuner};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn fixture_programs(n: usize) -> Vec<Program> {
    let limits = HardwareLimits::default();
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let wl = Workload::matmul(1, 1024, 1024, 1024);
    (0..n).map(|_| Program::sample(&wl, &limits, &mut rng)).collect()
}

fn bench_sampling(c: &mut Criterion) {
    let limits = HardwareLimits::default();
    let wl = Workload::conv2d(1, 64, 56, 56, 64, 3, 1, 1);
    c.bench_function("sample_program_conv2d", |b| {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        b.iter(|| Program::sample(&wl, &limits, &mut rng))
    });
    c.bench_function("mutate_program", |b| {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let p = Program::sample(&wl, &limits, &mut rng);
        b.iter(|| evolve::mutate(&p, &limits, &mut rng))
    });
}

fn bench_stats_and_models(c: &mut Criterion) {
    let progs = fixture_programs(1);
    let prog = &progs[0];
    c.bench_function("program_stats", |b| b.iter(|| prog.stats()));

    let psa = Psa::new(GpuSpec::t4());
    c.bench_function("psa_estimate", |b| b.iter(|| psa.estimate(prog)));

    let sim = Simulator::new(GpuSpec::t4());
    c.bench_function("simulator_latency", |b| b.iter(|| sim.latency(prog)));

    c.bench_function("featurize_sample", |b| b.iter(|| Sample::unlabeled(prog, 0)));
}

fn bench_inference(c: &mut Criterion) {
    let progs = fixture_programs(256);
    let samples: Vec<Sample> = progs.iter().map(|p| Sample::unlabeled(p, 0)).collect();
    for kind in [ModelKind::Pacm, ModelKind::TensetMlp, ModelKind::Tlp, ModelKind::Ansor] {
        let model = kind.build(3);
        let name = format!("predict_256_{}", model.name().replace(' ', "_"));
        c.bench_function(&name, |b| {
            b.iter_batched(
                || samples.clone(),
                |s| model.predict_batch(&s, 1),
                BatchSize::LargeInput,
            )
        });
    }
}

fn bench_propose(c: &mut Criterion) {
    // The full draft-then-verify propose path at the paper's pool size
    // (2,048 candidates): generation + PSA drafting + featurization +
    // cost-model verification. The `threads` suffix is the worker count of
    // the candidate-evaluation pipeline; the proposals are bit-identical,
    // only the wall clock changes (≥2× is expected at 4 threads).
    let wl = Workload::matmul(1, 512, 512, 512);
    let limits = HardwareLimits::default();
    let psa = Psa::new(GpuSpec::t4());
    let model = ModelKind::Pacm.build(3);
    for threads in [1usize, 4] {
        c.bench_function(&format!("propose_pool2048_threads{threads}"), |b| {
            b.iter_batched(
                || {
                    (
                        TaskTuner::new(wl.clone(), 0, 1),
                        Measurer::new(Simulator::new(GpuSpec::t4())),
                        ChaCha8Rng::seed_from_u64(42),
                    )
                },
                |(mut task, mut measurer, mut rng)| {
                    let params = ProposeParams {
                        space_size: 128,
                        pool_size: 2048,
                        epsilon: 0.05,
                        n: 8,
                        seed: 42,
                        round: 0,
                        threads,
                    };
                    let mut arena = CandidateArena::default();
                    task.propose(
                        model.as_ref(),
                        Some(&psa),
                        &mut measurer,
                        &limits,
                        &params,
                        &mut rng,
                        &mut arena,
                        &mut NoopRecorder,
                    )
                },
                BatchSize::LargeInput,
            )
        });
    }
}

criterion_group! {
    name = micro;
    config = Criterion::default().sample_size(20);
    targets = bench_sampling, bench_stats_and_models, bench_inference, bench_propose
}
criterion_main!(micro);
