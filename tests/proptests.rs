//! Property-based tests over the core data structures and invariants.

use proptest::prelude::*;
use pruner::cost::metrics::{
    best_k, kendall_tau, spearman, top_k, top_k_overlap, SpaceEval, TaskEval,
};
use pruner::gpu::{GpuSpec, Simulator};
use pruner::ir::{EwKind, Workload};
use pruner::psa::Psa;
use pruner::sketch::{split, HardwareLimits, Program};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Strategy: a plausible tuning workload of any of the five kinds.
fn arb_workload() -> impl Strategy<Value = Workload> {
    prop_oneof![
        (1u64..=8, 8u64..=512, 8u64..=512, 8u64..=512)
            .prop_map(|(b, m, n, k)| Workload::matmul(b, m, n, k)),
        (1u64..=2, 3u64..=128, 8u64..=64, 8u64..=128, 1u64..=3, 1u64..=2)
            .prop_map(|(n, c, hw, co, k, s)| {
                let k = 2 * k - 1; // odd kernels 1/3/5
                let pad = k / 2;
                Workload::conv2d(n, c, hw.max(k), hw.max(k), co, k, s, pad)
            }),
        (1u64..=2, 8u64..=256, 8u64..=64, 1u64..=2)
            .prop_map(|(n, c, hw, s)| Workload::dwconv2d(n, c, hw.max(3), hw.max(3), 3, s, 1)),
        (1u64..=20u64).prop_map(|p| Workload::elementwise(EwKind::Relu, 1 << (p + 4))),
        (8u64..=4096, 8u64..=4096).prop_map(|(o, r)| Workload::reduction(o, r)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sampled_programs_are_valid_and_stats_sane(wl in arb_workload(), seed in 0u64..1000) {
        let limits = HardwareLimits::default();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let prog = Program::sample(&wl, &limits, &mut rng);
        prop_assert!(prog.is_valid(&limits));
        let stats = prog.stats();
        // Work never shrinks below the mathematical requirement.
        prop_assert!(stats.flops_total >= wl.flops() * 0.999);
        prop_assert!(stats.padding_waste >= 1.0 - 1e-12);
        // Minimal traffic: every output element is written at least once.
        prop_assert!(stats.global_bytes + 1.0 >= wl.output_elems() as f64 * 4.0);
        prop_assert!(stats.threads_per_block >= 1);
        prop_assert!(stats.num_blocks >= 1);
        // Buffer statements partition the global traffic.
        let stmt_bytes: f64 = stats.stmts.iter().map(|s| s.global_bytes).sum();
        prop_assert!((stmt_bytes - stats.global_bytes).abs() <= stats.global_bytes * 1e-9 + 1.0);
    }

    #[test]
    fn simulator_respects_roofline(wl in arb_workload(), seed in 0u64..500) {
        let spec = GpuSpec::a100();
        let sim = Simulator::new(spec.clone());
        let limits = spec.limits();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let prog = Program::sample(&wl, &limits, &mut rng);
        let lat = sim.latency(&prog);
        prop_assert!(lat.is_finite() && lat > 0.0);
        // The quirk term allows at most ±6%; nothing beats 90% of roofline.
        prop_assert!(lat >= sim.roofline(&wl) * 0.9, "{lat} vs roofline {}", sim.roofline(&wl));
    }

    #[test]
    fn psa_estimate_positive_and_finite(wl in arb_workload(), seed in 0u64..500) {
        let spec = GpuSpec::t4();
        let psa = Psa::new(spec.clone());
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let prog = Program::sample(&wl, &spec.limits(), &mut rng);
        let est = psa.estimate(&prog);
        prop_assert!(est.is_finite() && est > 0.0);
    }

    #[test]
    fn split_product_invariant(extent in 1u64..=4096, parts in 1usize..=5, seed in 0u64..100) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let s = split::sample_split(&mut rng, extent, parts);
        prop_assert_eq!(s.len(), parts);
        prop_assert_eq!(s.iter().product::<u64>(), extent);
    }

    #[test]
    fn mutation_preserves_validity(wl in arb_workload(), seed in 0u64..200) {
        let limits = HardwareLimits::default();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let p = Program::sample(&wl, &limits, &mut rng);
        for _ in 0..5 {
            let m = pruner::sketch::evolve::mutate(&p, &limits, &mut rng);
            prop_assert!(m.is_valid(&limits));
            prop_assert_eq!(&m.workload, &wl);
        }
    }

    #[test]
    fn top_k_bounds(latencies in prop::collection::vec(1e-6f64..1e-1, 2..40),
                    scores in prop::collection::vec(-10f32..10.0, 40),
                    k in 1usize..=10) {
        let n = latencies.len();
        let task = TaskEval { weight: 1, latencies, scores: scores[..n].to_vec() };
        let v = top_k(&[task], k);
        prop_assert!(v > 0.0 && v <= 1.0 + 1e-12, "top_k out of bounds: {}", v);
    }

    #[test]
    fn best_k_monotone_in_k(latencies in prop::collection::vec(1e-6f64..1e-1, 3..40)) {
        let optimum = latencies.iter().cloned().fold(f64::INFINITY, f64::min) * 0.9;
        let space = SpaceEval { weight: 1, full_optimum: optimum, space_latencies: latencies };
        let mut prev = f64::INFINITY;
        for k in 1..=5 {
            let v = best_k(std::slice::from_ref(&space), k);
            prop_assert!(v <= prev + 1e-12, "best_k must not grow with k");
            prev = v;
        }
    }

    /// ρ and τ lie in [−1, 1] and the overlap in [0, 1], and each is the
    /// same number with its two sides swapped — over tie-heavy integer
    /// samples (ties on one side or both) and continuous ones.
    #[test]
    fn rank_statistics_are_bounded_and_symmetric(
        rows in prop::collection::vec((-4i32..4, -4i32..4, -1e3f64..1e3), 0..40),
        k in 0usize..48,
    ) {
        let tied = |pick: fn(&(i32, i32, f64)) -> i32| -> Vec<f64> {
            rows.iter().map(|r| f64::from(pick(r))).collect()
        };
        let (a, b) = (tied(|r| r.0), tied(|r| r.1));
        let c: Vec<f64> = rows.iter().map(|r| r.2).collect();
        for (x, y) in [(&a, &b), (&a, &c), (&c, &c)] {
            let (rho, tau) = (spearman(x, y), kendall_tau(x, y));
            let overlap = top_k_overlap(x, y, k);
            prop_assert!((-1.0..=1.0).contains(&rho), "ρ = {}", rho);
            prop_assert!((-1.0..=1.0).contains(&tau), "τ = {}", tau);
            prop_assert!((0.0..=1.0).contains(&overlap), "overlap = {}", overlap);
            prop_assert_eq!(rho.to_bits(), spearman(y, x).to_bits());
            prop_assert_eq!(tau.to_bits(), kendall_tau(y, x).to_bits());
            prop_assert_eq!(overlap.to_bits(), top_k_overlap(y, x, k).to_bits());
        }
    }

    #[test]
    fn render_never_panics_and_mentions_launch(wl in arb_workload(), seed in 0u64..200) {
        let limits = HardwareLimits::default();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let prog = Program::sample(&wl, &limits, &mut rng);
        let text = pruner::sketch::render::render(&prog);
        prop_assert!(text.contains("// launch: grid("));
        prop_assert!(text.contains("blockIdx.x"));
    }

    #[test]
    fn features_are_finite_for_any_program(wl in arb_workload(), seed in 0u64..200) {
        let limits = HardwareLimits::default();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let prog = Program::sample(&wl, &limits, &mut rng);
        let s = pruner::cost::Sample::unlabeled(&prog, 0);
        prop_assert!(s.stmt.iter().all(|v| v.is_finite()));
        prop_assert!(s.flow.iter().all(|v| v.is_finite()));
        prop_assert!(s.tokens.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn vendor_oracle_never_beats_roofline(wl in arb_workload()) {
        let spec = GpuSpec::titan_v();
        let sim = Simulator::new(spec.clone());
        let v = pruner::gpu::vendor::vendor_latency(&spec, &wl);
        // Winograd can beat the *naive-algorithm* roofline by up to 2.25x,
        // but never physics by more.
        prop_assert!(v > sim.roofline(&wl) * 0.4, "vendor {} under roofline {}", v, sim.roofline(&wl));
        prop_assert!(v.is_finite() && v > 0.0);
    }

    #[test]
    fn measurement_noise_is_bounded(seed in 0u64..200) {
        let spec = GpuSpec::orin();
        let sim = Simulator::new(spec.clone());
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let prog = Program::sample(
            &Workload::matmul(1, 256, 256, 256), &spec.limits(), &mut rng);
        let base = sim.latency(&prog);
        let noisy = sim.measure(&prog, seed);
        prop_assert!((noisy / base - 1.0).abs() < 0.2, "noise too large: {} vs {}", noisy, base);
    }
}
