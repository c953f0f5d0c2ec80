//! Executable CPU measurement backend.
//!
//! Where `pruner-gpu`'s [`Simulator`](pruner_gpu::Simulator) *models* a
//! program's latency analytically, [`CpuExec`] *runs* it: the scheduled
//! loop nest is rendered into a small interpreter (tile grids become
//! thread-banded block sweeps, the GEMM inner tiles go through the
//! `pruner-nn` micro-kernels) and latency is robust wall time. Results
//! are bit-identical to a naive reference interpretation regardless of
//! schedule or thread count — only the *time* depends on the schedule —
//! which is what makes the simulator-vs-reality differential harness in
//! `tests/backend_differential.rs` and the `fidelity` experiment entry
//! possible (their rank statistics live in `pruner_cost::metrics`).
//!
//! The crate has three layers:
//! - [`data`]: deterministic synthetic operand tensors per workload;
//! - [`interp`]: the schedule-driven interpreter and its naive reference;
//! - [`timer`]: robust wall-clock estimation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod data;
pub mod interp;
pub mod timer;

pub use interp::{execute, reference_output};
pub use timer::TimerConfig;

use pruner_gpu::{Backend, FaultKind, GpuSpec, Measurement};
use pruner_sketch::Program;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Configuration of the executable CPU backend.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CpuExecConfig {
    /// Worker threads the interpreter may band blocks over.
    pub threads: usize,
    /// Wall-clock estimator settings.
    pub timer: TimerConfig,
}

impl Default for CpuExecConfig {
    fn default() -> Self {
        let threads = std::env::var("PRUNER_CPU_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&t| t >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1).min(8)
            });
        CpuExecConfig { threads, timer: TimerConfig::default() }
    }
}

/// The executable CPU backend: measures programs by running them.
///
/// Cloneable and cheap to clone — the latency cache is shared between
/// clones, so a campaign's repeated latency queries for the same program
/// (deduplicated by [`Program::dedup_key`]) execute only once.
#[derive(Debug, Clone)]
pub struct CpuExec {
    spec: GpuSpec,
    cfg: CpuExecConfig,
    cache: Arc<Mutex<HashMap<String, f64>>>,
}

impl CpuExec {
    /// Creates a backend for `spec` with default configuration.
    ///
    /// The spec still matters on an executable backend: it defines the
    /// schedule-validity limits candidate programs are sampled against
    /// and keys store records and checkpoints.
    pub fn new(spec: GpuSpec) -> CpuExec {
        CpuExec::with_config(spec, CpuExecConfig::default())
    }

    /// Creates a backend with explicit configuration.
    pub fn with_config(spec: GpuSpec, cfg: CpuExecConfig) -> CpuExec {
        CpuExec { spec, cfg, cache: Arc::new(Mutex::new(HashMap::new())) }
    }

    /// The active configuration.
    pub fn config(&self) -> &CpuExecConfig {
        &self.cfg
    }

    /// Runs one timed measurement of `prog` with `samples` timing samples.
    fn timed(&self, prog: &Program, samples: u32) -> timer::WallEstimate {
        let inputs = data::operand_data(&prog.workload);
        let timer_cfg = TimerConfig { samples, ..self.cfg.timer.clone() };
        timer::measure_wall(&timer_cfg, || {
            let out = interp::execute_with(prog, &inputs, self.cfg.threads);
            std::hint::black_box(out.last().copied());
        })
    }
}

impl Backend for CpuExec {
    const TAG: &'static str = "cpu";

    fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    fn latency(&self, prog: &Program) -> f64 {
        let key = prog.dedup_key();
        if let Some(&hit) = self.cache.lock().expect("latency cache poisoned").get(&key) {
            return hit;
        }
        let est = self.timed(prog, self.cfg.timer.samples);
        self.cache.lock().expect("latency cache poisoned").insert(key, est.mean_s);
        est.mean_s
    }

    fn measure_dist(&self, prog: &Program, _nonce: u64, repeats: u32) -> Measurement {
        let est = self.timed(prog, repeats.max(2));
        self.cache
            .lock()
            .expect("latency cache poisoned")
            .insert(prog.dedup_key(), est.mean_s);
        Measurement { mean_s: est.mean_s, variance: est.variance }
    }

    fn try_measure(
        &self,
        prog: &Program,
        nonce: u64,
        repeats: u32,
    ) -> Result<Measurement, FaultKind> {
        // Real execution has no injected faults; an interpreter run either
        // completes or panics (a bug, not a measurement fault).
        Ok(self.measure_dist(prog, nonce, repeats))
    }

    fn checkpoint_config(&self) -> String {
        serde_json::to_string(&self.cfg).expect("cpu backend config serializes")
    }

    fn from_checkpoint_config(spec: &GpuSpec, cfg: &str) -> std::io::Result<CpuExec> {
        let cfg: CpuExecConfig = serde_json::from_str(cfg).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("corrupt cpu backend config: {e}"),
            )
        })?;
        Ok(CpuExec::with_config(spec.clone(), cfg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pruner_ir::Workload;
    use pruner_sketch::HardwareLimits;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn small_cfg() -> CpuExecConfig {
        CpuExecConfig {
            threads: 2,
            timer: TimerConfig { samples: 3, min_window_s: 1e-5, ..TimerConfig::default() },
        }
    }

    fn sample_prog(seed: u64) -> Program {
        let wl = Workload::matmul(1, 64, 64, 64);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Program::sample(&wl, &HardwareLimits::default(), &mut rng)
    }

    #[test]
    fn tag_and_spec_are_exposed() {
        let be = CpuExec::with_config(GpuSpec::t4(), small_cfg());
        assert_eq!(CpuExec::TAG, "cpu");
        assert_eq!(be.tag(), "cpu");
        assert_eq!(be.spec().name, GpuSpec::t4().name);
    }

    #[test]
    fn latency_is_cached_and_shared_between_clones() {
        let be = CpuExec::with_config(GpuSpec::t4(), small_cfg());
        let p = sample_prog(3);
        let first = be.latency(&p);
        assert!(first > 0.0);
        // A second query — and a query through a clone — returns the
        // cached value exactly, not a fresh (noisy) measurement.
        assert_eq!(be.latency(&p), first);
        assert_eq!(be.clone().latency(&p), first);
    }

    #[test]
    fn try_measure_never_faults() {
        let be = CpuExec::with_config(GpuSpec::t4(), small_cfg());
        let p = sample_prog(4);
        let m = be.try_measure(&p, 7, 3).expect("cpu backend has no injected faults");
        assert!(m.mean_s > 0.0);
        assert!(m.variance >= 0.0);
    }

    #[test]
    fn fault_model_is_rejected_silently() {
        let mut be = CpuExec::with_config(GpuSpec::t4(), small_cfg());
        be.install_fault_model(Some(pruner_gpu::FaultModel::from_rate(1, 0.5)));
        assert!(be.fault_model().is_none(), "real execution ignores injected faults");
    }

    #[test]
    fn checkpoint_config_round_trips() {
        let be = CpuExec::with_config(GpuSpec::a100(), small_cfg());
        let cfg = be.checkpoint_config();
        let restored = CpuExec::from_checkpoint_config(&GpuSpec::a100(), &cfg).unwrap();
        assert_eq!(restored.config(), be.config());
        assert_eq!(restored.spec().name, GpuSpec::a100().name);
    }

    #[test]
    fn corrupt_checkpoint_config_is_rejected() {
        let err = CpuExec::from_checkpoint_config(&GpuSpec::t4(), "{broken").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn executed_result_matches_reference_for_a_sampled_program() {
        let p = sample_prog(5);
        let got = execute(&p, 2);
        let want = reference_output(&p.workload);
        assert_eq!(got, want, "schedule must not change the numbers");
    }
}
