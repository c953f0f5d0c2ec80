//! The analytical latency model.

use crate::fault::{FaultDraw, FaultKind, FaultModel, Measurement};
use crate::spec::GpuSpec;
use pruner_sketch::{Program, ProgramStats};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rand_distr::{Distribution, LogNormal};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Tunable constants of the latency model.
///
/// The defaults are calibrated so tuned kernels land at realistic fractions
/// of roofline; experiments only rely on *relative* orderings, which are
/// stable across a broad range of these constants.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SimConfig {
    /// Amplitude of the deterministic microarchitectural quirk term (±).
    pub quirk_amplitude: f64,
    /// σ of the log-normal measurement noise added by [`Simulator::measure`].
    pub measure_noise_sigma: f64,
    /// L2 bandwidth as a multiple of DRAM bandwidth.
    pub l2_bandwidth_mult: f64,
    /// Shared-memory bandwidth in bytes per peak FLOP.
    pub shared_bytes_per_flop: f64,
    /// Fraction of the non-dominant pipeline times that does *not* overlap
    /// with the dominant one.
    pub overlap_residue: f64,
    /// Occupancy multiplier: effective throughput saturates once
    /// `occupancy × k ≥ 1`.
    pub latency_hiding_k: f64,
    /// Warps per SM needed to saturate DRAM bandwidth.
    pub mem_saturation_warps: f64,
    /// Unhidden cost of one shared-memory staging round (block barrier +
    /// pipeline refill), seconds.
    pub sync_latency_s: f64,
    /// Base RNG seed for measurement noise.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            quirk_amplitude: 0.06,
            measure_noise_sigma: 0.02,
            l2_bandwidth_mult: 3.0,
            shared_bytes_per_flop: 0.5,
            overlap_residue: 0.15,
            latency_hiding_k: 3.0,
            mem_saturation_warps: 8.0,
            sync_latency_s: 0.3e-6,
            seed: 0x5EED,
        }
    }
}

/// Analytical GPU latency simulator for one platform.
///
/// The simulator is the reproduction's ground-truth oracle: `latency` is
/// deterministic, `measure` adds reproducible noise. See the crate docs for
/// the modeled effects.
#[derive(Debug, Clone)]
pub struct Simulator {
    spec: GpuSpec,
    cfg: SimConfig,
    fault: Option<FaultModel>,
}

impl Simulator {
    /// Creates a simulator with default model constants.
    pub fn new(spec: GpuSpec) -> Simulator {
        Simulator { spec, cfg: SimConfig::default(), fault: None }
    }

    /// Creates a simulator with explicit model constants.
    pub fn with_config(spec: GpuSpec, cfg: SimConfig) -> Simulator {
        Simulator { spec, cfg, fault: None }
    }

    /// The platform being simulated.
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// The model constants.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Enables (or disables, with `None`) deterministic fault injection on
    /// the measurement path. Noise-free [`Simulator::latency`] queries are
    /// never faulted — only measurements, like real hardware.
    pub fn set_fault_model(&mut self, fault: Option<FaultModel>) {
        self.fault = fault;
    }

    /// The active fault model, if any.
    pub fn fault_model(&self) -> Option<&FaultModel> {
        self.fault.as_ref()
    }

    /// Noise-free latency of a program, in seconds.
    pub fn latency(&self, prog: &Program) -> f64 {
        self.latency_of_stats(&prog.stats())
    }

    /// Noise-free latency from precomputed statistics, in seconds.
    pub(crate) fn latency_of_stats(&self, stats: &ProgramStats) -> f64 {
        let spec = &self.spec;
        let threads = stats.threads_per_block.max(1);
        let wpb = stats.warps_per_block(spec.warp_size);
        let blocks = stats.num_blocks.max(1);

        // --- Register pressure and spilling -----------------------------
        // The compiler caps per-thread registers at what one resident block
        // can get; demand above that spills to local memory.
        let avail_regs =
            (spec.registers_per_sm / threads).min(spec.reg_limit_per_thread).max(24);
        let effective_regs = stats.regs_per_thread.min(avail_regs);
        let spill_regs = stats.regs_per_thread.saturating_sub(avail_regs);
        let spill_factor = 1.0 + 0.35 * (spill_regs as f64 / avail_regs as f64);
        // Each spilled register round-trips through local (DRAM-backed)
        // memory a few times per thread.
        let spill_bytes =
            spill_regs as f64 * 4.0 * (blocks * threads) as f64 * 4.0;

        // --- Occupancy ---------------------------------------------------
        let by_warps = (spec.max_warps_per_sm / wpb).max(1);
        let by_regs = spec
            .registers_per_sm
            .checked_div(effective_regs * threads)
            .unwrap_or(u64::MAX)
            .max(1);
        let by_shared = spec
            .shared_per_sm
            .checked_div(stats.shared_bytes_per_block)
            .unwrap_or(u64::MAX)
            .max(1);
        let resident_limit =
            spec.max_blocks_per_sm.min(by_warps).min(by_regs).min(by_shared).max(1);

        let busy_sms = blocks.min(spec.num_sms);
        let blocks_per_busy_sm = blocks.div_ceil(spec.num_sms).min(resident_limit).max(1);
        let active_warps = (blocks_per_busy_sm * wpb).min(spec.max_warps_per_sm);
        let occupancy = active_warps as f64 / spec.max_warps_per_sm as f64;

        // --- Compute time ------------------------------------------------
        let unroll_bonus = if stats.unroll >= 64 {
            0.5
        } else if stats.unroll >= 16 {
            0.2
        } else {
            0.0
        };
        let hiding = (occupancy * (self.cfg.latency_hiding_k + unroll_bonus)).min(1.0);
        let warp_eff = threads as f64 / (wpb * spec.warp_size) as f64;
        let peak_avail =
            spec.peak_gflops * 1e9 * busy_sms as f64 / spec.num_sms as f64;
        let capacity = resident_limit * spec.num_sms;
        let wave_quant = if blocks > capacity {
            let waves = blocks.div_ceil(capacity);
            (waves * capacity) as f64 / blocks as f64
        } else {
            1.0
        };
        let compute_time = stats.flops_total * spill_factor * wave_quant
            / (peak_avail * hiding.max(1e-3) * warp_eff.max(1e-3));

        // --- Global memory time -------------------------------------------
        let total_active_warps = active_warps * busy_sms;
        let mem_par = (total_active_warps as f64
            / (self.cfg.mem_saturation_warps * spec.num_sms as f64))
            .clamp(0.05, 1.0);
        let dram_bw = spec.dram_gbps * 1e9 * mem_par;
        let l2_bw = dram_bw * self.cfg.l2_bandwidth_mult;
        let tx = spec.mem_transaction_elems;
        let mut mem_time = spill_bytes / dram_bw;
        for stmt in &stats.stmts {
            if stmt.global_bytes <= 0.0 {
                continue;
            }
            let c = stmt.innermost_len.max(1);
            let coalesce = c as f64 / (c.div_ceil(tx) * tx) as f64;
            let (dram_bytes, l2_bytes) = if stmt.tensor_bytes > 0.0
                && stmt.tensor_bytes <= spec.l2_bytes as f64
            {
                (stmt.tensor_bytes, (stmt.global_bytes - stmt.tensor_bytes).max(0.0))
            } else {
                (stmt.global_bytes, 0.0)
            };
            // L2 is less sensitive to coalescing than DRAM.
            let l2_coalesce = coalesce.sqrt();
            mem_time += dram_bytes / (dram_bw * coalesce) + l2_bytes / (l2_bw * l2_coalesce);
        }

        // --- Shared memory time -------------------------------------------
        let shared_bw = spec.peak_gflops * 1e9 * self.cfg.shared_bytes_per_flop
            * (busy_sms as f64 / spec.num_sms as f64)
            * hiding.max(0.2);
        let shared_time = if stats.shared_traffic_bytes > 0.0 {
            stats.shared_traffic_bytes / shared_bw
        } else {
            0.0
        };

        // --- Staging synchronization ---------------------------------------
        // Every outer-reduction staging round ends in a block-wide barrier
        // plus a pipeline refill that cannot be hidden; schedules that stage
        // many tiny chunks pay for it. Only the temporal data-flow pattern
        // exposes this (the per-statement totals do not), which is exactly
        // the signal the paper's data-flow features capture.
        let staging_steps = stats
            .dataflow
            .iter()
            .filter(|s| s.dst == pruner_sketch::MemLevel::Shared)
            .map(|s| s.steps)
            .fold(0.0, f64::max);
        let sync_waves = blocks.div_ceil(capacity).max(1) as f64;
        let sync_time = staging_steps * self.cfg.sync_latency_s * sync_waves;

        // --- Combine ------------------------------------------------------
        let dominant = compute_time.max(mem_time).max(shared_time);
        let residue = compute_time + mem_time + shared_time - dominant;
        let base = dominant
            + self.cfg.overlap_residue * residue
            + sync_time
            + spec.launch_overhead_us * 1e-6;

        base * self.quirk(stats)
    }

    /// Smooth deterministic quirk: a function of schedule parameters that a
    /// learned model can infer from features but a closed-form penalty
    /// formula does not capture.
    fn quirk(&self, stats: &ProgramStats) -> f64 {
        let x1 = (stats.threads_per_block as f64).ln();
        let x2 = (stats.shared_bytes_per_block as f64 + 1.0).ln();
        let x3 = (stats.regs_per_thread as f64).ln();
        let x4 = stats.vectorize as f64;
        let x5 = (stats.unroll as f64 + 1.0).ln();
        let f = (1.7 * x1 + 0.9 * x3).sin() * (1.3 * x2 + 0.5 * x4).cos()
            + 0.5 * (2.3 * x5 + 0.11 * x1 * x2).sin();
        1.0 + self.cfg.quirk_amplitude * f / 1.5
    }

    /// One noisy measurement of a program, in seconds.
    ///
    /// Noise is log-normal with σ = `measure_noise_sigma`, seeded by the
    /// program identity, the simulator seed and `nonce`, so repeated calls
    /// with the same arguments return the same value. This is the
    /// definition of one repeat: [`Simulator::measure_dist`] returns the
    /// moments of exactly these values.
    pub fn measure(&self, prog: &Program, nonce: u64) -> f64 {
        self.noise(prog, &prog.dedup_key()).draw(nonce)
    }

    /// Mean **and** per-repeat dispersion of `repeats` noisy measurements.
    ///
    /// Repeat `i` is `measure(prog, salt + i)`, with `salt` a hash of the
    /// program key and `nonce`; the mean sums them in that order, and the
    /// variance is the population variance of the repeats, which outlier
    /// detection keys on. The analytic latency and the noise distribution
    /// are derived once per call, so each repeat costs one noise draw.
    pub fn measure_dist(&self, prog: &Program, nonce: u64, repeats: u32) -> Measurement {
        self.measure_dist_keyed(prog, &prog.dedup_key(), nonce, repeats)
    }

    /// [`Simulator::measure_dist`] for a caller that already holds
    /// `prog.dedup_key()`.
    fn measure_dist_keyed(
        &self,
        prog: &Program,
        key: &str,
        nonce: u64,
        repeats: u32,
    ) -> Measurement {
        assert!(repeats > 0, "need at least one repeat");
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        nonce.hash(&mut hasher);
        let salt = hasher.finish();
        let noise = self.noise(prog, key);
        let vals: Vec<f64> =
            (0..repeats as u64).map(|i| noise.draw(salt.wrapping_add(i))).collect();
        let mean = vals.iter().sum::<f64>() / repeats as f64;
        let variance =
            vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / repeats as f64;
        Measurement { mean_s: mean, variance }
    }

    /// The per-program half of a measurement; `key` is `prog.dedup_key()`.
    fn noise(&self, prog: &Program, key: &str) -> Noise {
        let mut prefix = DefaultHasher::new();
        key.hash(&mut prefix);
        self.cfg.seed.hash(&mut prefix);
        Noise {
            base: self.latency(prog),
            prefix,
            dist: LogNormal::new(0.0, self.cfg.measure_noise_sigma).expect("valid lognormal"),
        }
    }

    /// One measurement attempt through the fault model.
    ///
    /// With no fault model installed (or a clean draw) this is exactly
    /// [`Simulator::measure_dist`]. A faulting draw returns the typed
    /// failure instead; an outlier draw corrupts the returned timing as if
    /// one of the repeats had spiked by the drawn multiplier, inflating
    /// both the mean and the variance so the harness can detect it. The
    /// program key is formatted once per attempt and shared by the fault
    /// draw and the measurement.
    pub fn try_measure(
        &self,
        prog: &Program,
        nonce: u64,
        repeats: u32,
    ) -> Result<Measurement, FaultKind> {
        let key = prog.dedup_key();
        let draw = match &self.fault {
            Some(fault) => fault.draw(&key, nonce),
            None => FaultDraw::Clean,
        };
        match draw {
            FaultDraw::Clean => Ok(self.measure_dist_keyed(prog, &key, nonce, repeats)),
            FaultDraw::Fault(kind) => Err(kind),
            FaultDraw::Outlier(mult) => {
                let clean = self.measure_dist_keyed(prog, &key, nonce, repeats);
                let n = repeats as f64;
                let spike = clean.mean_s * (mult - 1.0);
                Ok(Measurement {
                    mean_s: clean.mean_s + spike / n,
                    variance: clean.variance + spike * spike * (n - 1.0).max(0.0) / (n * n),
                })
            }
        }
    }

    /// The best latency a perfectly tuned kernel could approach on this
    /// platform: the roofline of the workload's FLOPs and minimal traffic.
    pub fn roofline(&self, workload: &pruner_ir::Workload) -> f64 {
        let flops = workload.flops();
        let min_bytes = (workload.operand_elems().iter().sum::<u64>()
            + workload.output_elems()) as f64
            * 4.0;
        let compute = flops / (self.spec.peak_gflops * 1e9);
        let memory = min_bytes / (self.spec.dram_gbps * 1e9);
        compute.max(memory) + self.spec.launch_overhead_us * 1e-6
    }
}

/// What every repeat of one program's measurement shares: the noise-free
/// latency, a hasher already fed the program key and the simulator seed,
/// and the noise distribution.
struct Noise {
    base: f64,
    prefix: DefaultHasher,
    dist: LogNormal,
}

impl Noise {
    /// One repeat: the base latency times the log-normal draw seeded by the
    /// prefix and `nonce`.
    fn draw(&self, nonce: u64) -> f64 {
        let mut hasher = self.prefix.clone();
        nonce.hash(&mut hasher);
        let mut rng = ChaCha8Rng::seed_from_u64(hasher.finish());
        self.base * self.dist.sample(&mut rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pruner_ir::{EwKind, Workload};
    use pruner_sketch::{HardwareLimits, Schedule, SimpleConfig, TileConfig};

    fn t4() -> Simulator {
        Simulator::new(GpuSpec::t4())
    }

    fn sample_prog(wl: &Workload, seed: u64) -> Program {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Program::sample(wl, &HardwareLimits::default(), &mut rng)
    }

    #[test]
    fn latency_positive_and_finite_across_samples() {
        let sim = t4();
        for wl in [
            Workload::matmul(1, 512, 512, 512),
            Workload::conv2d(1, 64, 56, 56, 64, 3, 1, 1),
            Workload::elementwise(EwKind::Relu, 1 << 20),
            Workload::reduction(2048, 768),
        ] {
            for s in 0..30 {
                let lat = sim.latency(&sample_prog(&wl, s));
                assert!(lat.is_finite() && lat > 0.0, "{wl} seed {s} gave {lat}");
            }
        }
    }

    #[test]
    fn latency_above_roofline() {
        let sim = t4();
        let wl = Workload::matmul(1, 1024, 1024, 1024);
        let roof = sim.roofline(&wl);
        for s in 0..20 {
            let lat = sim.latency(&sample_prog(&wl, s));
            assert!(lat >= roof * 0.8, "latency {lat} dips below roofline {roof}");
        }
    }

    #[test]
    fn good_matmul_schedule_beats_bad() {
        let sim = t4();
        let wl = Workload::matmul(1, 1024, 1024, 1024);
        // Good: 64x64 block tiles, 256 threads, staged reduction, unrolled.
        let good = Program::new(
            wl.clone(),
            Schedule::MultiTile(TileConfig {
                spatial: vec![[16, 1, 16, 4, 1], [16, 1, 16, 2, 2]],
                reduce: vec![[64, 4, 4]],
                unroll: 64,
                vectorize: 4,
            }),
        );
        // Bad: single-thread blocks, degenerate tiling.
        let bad = Program::new(
            wl,
            Schedule::MultiTile(TileConfig {
                spatial: vec![[1024, 1, 1, 1, 1], [256, 1, 4, 1, 1]],
                reduce: vec![[1024, 1, 1]],
                unroll: 0,
                vectorize: 1,
            }),
        );
        let lg = sim.latency(&good);
        let lb = sim.latency(&bad);
        assert!(lg * 4.0 < lb, "good {lg} should be >4x faster than bad {lb}");
    }

    #[test]
    fn faster_gpu_is_faster() {
        let wl = Workload::matmul(1, 2048, 2048, 2048);
        let prog = sample_prog(&wl, 3);
        let a100 = Simulator::new(GpuSpec::a100()).latency(&prog);
        let orin = Simulator::new(GpuSpec::orin()).latency(&prog);
        assert!(a100 < orin, "A100 {a100} should beat Orin {orin}");
    }

    #[test]
    fn coalescing_matters_for_elementwise() {
        let sim = t4();
        let wl = Workload::elementwise(EwKind::Add, 1 << 22);
        let coalesced = Program::new(
            wl.clone(),
            Schedule::Simple(SimpleConfig { threads: 256, serial: 4, vectorize: 4 }),
        );
        let skinny = Program::new(
            wl,
            Schedule::Simple(SimpleConfig { threads: 32, serial: 16, vectorize: 1 }),
        );
        assert!(sim.latency(&coalesced) < sim.latency(&skinny));
    }

    #[test]
    fn measurement_noise_is_deterministic_and_small() {
        let sim = t4();
        let prog = sample_prog(&Workload::matmul(1, 256, 256, 256), 1);
        let a = sim.measure(&prog, 7);
        let b = sim.measure(&prog, 7);
        assert_eq!(a, b, "same nonce must reproduce");
        let c = sim.measure(&prog, 8);
        assert_ne!(a, c, "different nonce must differ");
        let base = sim.latency(&prog);
        assert!((a / base - 1.0).abs() < 0.15, "noise should be small");
    }

    #[test]
    fn measure_avg_converges_to_latency() {
        let sim = t4();
        let prog = sample_prog(&Workload::matmul(1, 256, 256, 256), 2);
        let base = sim.latency(&prog);
        let avg = sim.measure_dist(&prog, 0, 64).mean_s;
        assert!((avg / base - 1.0).abs() < 0.02);
    }

    #[test]
    fn measure_dist_mean_matches_avg_and_variance_is_tight() {
        // `measure` is the oracle: the distribution must be the explicit
        // fold of `measure(prog, salt + i)`, summed in repeat order. And
        // `measure` itself is the latency times a log-normal draw seeded by
        // the program key, the simulator seed and the nonce.
        let sim = t4();
        let dist = LogNormal::new(0.0, sim.cfg.measure_noise_sigma).unwrap();
        for seed in 0..6 {
            let prog = sample_prog(&Workload::matmul(1, 256, 256, 256), seed);
            let mut hasher = DefaultHasher::new();
            prog.dedup_key().hash(&mut hasher);
            sim.cfg.seed.hash(&mut hasher);
            seed.hash(&mut hasher);
            let mut rng = ChaCha8Rng::seed_from_u64(hasher.finish());
            let one = sim.latency(&prog) * dist.sample(&mut rng);
            assert_eq!(sim.measure(&prog, seed).to_bits(), one.to_bits());
            for repeats in [1, 3, 64] {
                let nonce = 3 + seed;
                let mut hasher = DefaultHasher::new();
                prog.dedup_key().hash(&mut hasher);
                nonce.hash(&mut hasher);
                let salt = hasher.finish();
                let vals: Vec<f64> =
                    (0..repeats).map(|i| sim.measure(&prog, salt.wrapping_add(i))).collect();
                let n = repeats as f64;
                let mean = vals.iter().sum::<f64>() / n;
                let variance = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
                let m = sim.measure_dist(&prog, nonce, repeats as u32);
                assert_eq!(m.mean_s.to_bits(), mean.to_bits(), "mean must be bit-identical");
                assert_eq!(m.variance.to_bits(), variance.to_bits(), "variance must be bit-exact");
            }
        }
        let prog = sample_prog(&Workload::matmul(1, 256, 256, 256), 4);
        let m = sim.measure_dist(&prog, 3, 64);
        assert!(m.variance > 0.0);
        assert!(m.rel_std() < 0.1, "clean rel std {} should track σ=0.02", m.rel_std());
    }

    #[test]
    fn try_measure_without_faults_is_clean_dist() {
        let sim = t4();
        let prog = sample_prog(&Workload::matmul(1, 256, 256, 256), 5);
        assert_eq!(sim.try_measure(&prog, 9, 32), Ok(sim.measure_dist(&prog, 9, 32)));
    }

    #[test]
    fn try_measure_injects_typed_faults_and_detectable_outliers() {
        let mut sim = t4();
        sim.set_fault_model(Some(crate::FaultModel::from_rate(0xFA17, 0.5)));
        let prog = sample_prog(&Workload::matmul(1, 256, 256, 256), 6);
        let clean = sim.measure_dist(&prog, 0, 100);
        let mut faults = 0;
        let mut outliers = 0;
        for nonce in 0..200 {
            match sim.try_measure(&prog, nonce, 100) {
                Err(_) => faults += 1,
                Ok(m) if m.rel_std() > 0.5 => {
                    outliers += 1;
                    assert!(m.mean_s > clean.mean_s, "outlier must inflate the mean");
                }
                Ok(m) => assert!(
                    m.rel_std() < 0.1,
                    "clean draws must stay tight, got rel std {}",
                    m.rel_std()
                ),
            }
        }
        assert!(faults > 0, "hard faults must fire at rate 0.5");
        assert!(outliers > 0, "outliers must fire and be detectable at rate 0.5");
        // Determinism: the same nonces reproduce the same fate sequence.
        let replay: Vec<Result<_, _>> =
            (0..200).map(|n| sim.try_measure(&prog, n, 100)).collect();
        let again: Vec<Result<_, _>> =
            (0..200).map(|n| sim.try_measure(&prog, n, 100)).collect();
        assert_eq!(replay, again);
    }

    #[test]
    fn register_spilling_penalized() {
        let sim = t4();
        let wl = Workload::matmul(1, 1024, 1024, 1024);
        // 16x16 per-thread tile: 256 accumulators + operands → heavy spill.
        let spilly = Program::new(
            wl.clone(),
            Schedule::MultiTile(TileConfig {
                spatial: vec![[8, 1, 8, 16, 1], [16, 1, 4, 16, 1]],
                reduce: vec![[64, 4, 4]],
                unroll: 0,
                vectorize: 1,
            }),
        );
        let lean = Program::new(
            wl,
            Schedule::MultiTile(TileConfig {
                spatial: vec![[16, 1, 16, 4, 1], [16, 1, 16, 4, 1]],
                reduce: vec![[64, 4, 4]],
                unroll: 0,
                vectorize: 1,
            }),
        );
        assert!(sim.latency(&lean) < sim.latency(&spilly));
    }

    #[test]
    fn many_staging_rounds_cost_more() {
        // Same tiles, but the reduction staged in 64 chunks of 16 vs
        // 16 chunks of 64: more barriers, slower (all else similar).
        let sim = t4();
        let wl = Workload::matmul(1, 1024, 1024, 1024);
        let mk = |r0: u64, r1: u64| {
            Program::new(
                wl.clone(),
                Schedule::MultiTile(TileConfig {
                    spatial: vec![[16, 1, 16, 4, 1], [16, 1, 16, 4, 1]],
                    reduce: vec![[r0, r1, 4]],
                    unroll: 16,
                    vectorize: 1,
                }),
            )
        };
        let few = sim.latency(&mk(16, 16));
        let many = sim.latency(&mk(64, 4));
        assert!(few < many, "fewer staging rounds should win: {few} vs {many}");
    }

    #[test]
    fn quirk_stays_bounded() {
        let sim = t4();
        for s in 0..50 {
            let prog = sample_prog(&Workload::conv2d(1, 64, 56, 56, 64, 3, 1, 1), s);
            let q = sim.quirk(&prog.stats());
            assert!((0.9..1.1).contains(&q), "quirk {q} out of band");
        }
    }

    #[test]
    fn matmul_1024_latency_plausible_on_t4() {
        // 2.1 GFLOP on an 8.1 TFLOP/s part: ideal 0.27 ms. A decent sampled
        // schedule should land within 40x of ideal and never below it.
        let sim = t4();
        let wl = Workload::matmul(1, 1024, 1024, 1024);
        let best = (0..50)
            .map(|s| sim.latency(&sample_prog(&wl, s)))
            .fold(f64::INFINITY, f64::min);
        assert!(best > 0.2e-3, "best {best} below physical limit");
        assert!(best < 12e-3, "best {best} implausibly slow");
    }
}
