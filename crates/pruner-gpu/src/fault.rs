//! Seeded hardware-fault injection for the measurement path.
//!
//! Real RPC measurement harnesses spend hours driving devices that
//! misbehave: candidate kernels fail to compile, hit run timeouts, trip
//! device resets, or return outlier timings polluted by context switches.
//! The analytical simulator never does any of that on its own, so this
//! module injects those failure classes *deterministically*: every draw is
//! a pure function of `(fault seed, program identity, trial nonce)`, so a
//! campaign with faults enabled is exactly as replayable — and as
//! thread-count-independent — as one without.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::hash::{Hash, Hasher};

/// A typed measurement failure, mirroring what a TVM-style RPC runner
/// reports back from real hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultKind {
    /// The candidate kernel failed to compile (charged compile time only).
    CompileError,
    /// The kernel ran past the measurement deadline and was killed.
    Timeout,
    /// The device wedged and needed a reset (charged a recovery penalty).
    DeviceReset,
    /// The timing came back wildly dispersed (context switch, clock
    /// throttle); detectable through the per-trial variance.
    Outlier,
}

impl FaultKind {
    /// Stable snake_case identifier for machine-readable payloads (trace
    /// records, artifacts). Unlike [`std::fmt::Display`], this is part of
    /// the versioned trace schema and must not be reworded.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::CompileError => "compile_error",
            FaultKind::Timeout => "timeout",
            FaultKind::DeviceReset => "device_reset",
            FaultKind::Outlier => "outlier",
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FaultKind::CompileError => "compile error",
            FaultKind::Timeout => "timeout",
            FaultKind::DeviceReset => "device reset",
            FaultKind::Outlier => "outlier timing",
        };
        f.write_str(s)
    }
}

/// The outcome of one fault draw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultDraw {
    /// The measurement proceeds normally.
    Clean,
    /// The measurement fails outright with the given class.
    Fault(FaultKind),
    /// The measurement "succeeds" but one repeat is inflated by the given
    /// multiplier — an outlier timing the harness should catch and retry.
    Outlier(f64),
}

/// One (mean, dispersion) measurement as a real harness would report it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Measurement {
    /// Mean latency over the configured repeats, seconds.
    pub mean_s: f64,
    /// Population variance of the per-repeat latencies, seconds².
    pub variance: f64,
}

impl Measurement {
    /// Relative standard deviation (σ / mean); the outlier-detection
    /// statistic. Zero for a zero or non-positive mean.
    pub fn rel_std(&self) -> f64 {
        if self.mean_s > 0.0 {
            self.variance.max(0.0).sqrt() / self.mean_s
        } else {
            0.0
        }
    }
}

/// Deterministic per-class fault probabilities.
///
/// `draw` derives a private ChaCha8 stream from `(seed, program key,
/// trial)`, so the injected faults are a replayable property of the
/// campaign, not of wall-clock scheduling: retrying the same trial nonce
/// reproduces the same fault, and a *different* nonce (the retry) redraws
/// independently.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultModel {
    /// Base seed of the fault stream (independent of measurement noise).
    pub seed: u64,
    /// Probability a measurement attempt fails to compile.
    pub compile_error_p: f64,
    /// Probability a measurement attempt times out.
    pub timeout_p: f64,
    /// Probability a measurement attempt trips a device reset.
    pub device_reset_p: f64,
    /// Probability a measurement attempt returns an outlier timing.
    pub outlier_p: f64,
    /// Smallest spike multiplier an outlier applies to one repeat.
    pub outlier_min_mult: f64,
    /// Largest spike multiplier an outlier applies to one repeat.
    pub outlier_max_mult: f64,
}

impl FaultModel {
    /// Splits one composite failure rate across the classes with the mix a
    /// long tuning log typically shows: compile errors dominate, then
    /// outliers and timeouts, with device resets rare.
    pub fn from_rate(seed: u64, rate: f64) -> FaultModel {
        let r = rate.clamp(0.0, 0.9);
        FaultModel {
            seed,
            compile_error_p: 0.40 * r,
            timeout_p: 0.25 * r,
            device_reset_p: 0.10 * r,
            outlier_p: 0.25 * r,
            outlier_min_mult: 20.0,
            outlier_max_mult: 100.0,
        }
    }

    /// Total probability that an attempt does not return a clean timing.
    pub fn total_rate(&self) -> f64 {
        self.compile_error_p + self.timeout_p + self.device_reset_p + self.outlier_p
    }

    /// Whether any class can fire at all.
    pub(crate) fn is_active(&self) -> bool {
        self.total_rate() > 0.0
    }

    /// Draws the fate of one measurement attempt.
    pub fn draw(&self, program_key: &str, trial: u64) -> FaultDraw {
        if !self.is_active() {
            return FaultDraw::Clean;
        }
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        self.seed.hash(&mut hasher);
        program_key.hash(&mut hasher);
        trial.hash(&mut hasher);
        let mut rng = ChaCha8Rng::seed_from_u64(hasher.finish());
        let u: f64 = rng.gen();
        let mut acc = self.compile_error_p;
        if u < acc {
            return FaultDraw::Fault(FaultKind::CompileError);
        }
        acc += self.timeout_p;
        if u < acc {
            return FaultDraw::Fault(FaultKind::Timeout);
        }
        acc += self.device_reset_p;
        if u < acc {
            return FaultDraw::Fault(FaultKind::DeviceReset);
        }
        acc += self.outlier_p;
        if u < acc {
            let span = (self.outlier_max_mult - self.outlier_min_mult).max(0.0);
            let mult = self.outlier_min_mult + span * rng.gen::<f64>();
            return FaultDraw::Outlier(mult.max(1.0));
        }
        FaultDraw::Clean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_labels_are_stable() {
        // These strings are part of the versioned trace schema; changing one
        // is a schema break and must bump pruner-trace's SCHEMA_VERSION.
        assert_eq!(FaultKind::CompileError.label(), "compile_error");
        assert_eq!(FaultKind::Timeout.label(), "timeout");
        assert_eq!(FaultKind::DeviceReset.label(), "device_reset");
        assert_eq!(FaultKind::Outlier.label(), "outlier");
    }

    #[test]
    fn draws_are_deterministic() {
        let f = FaultModel::from_rate(7, 0.25);
        for trial in 0..32 {
            assert_eq!(f.draw("prog-a", trial), f.draw("prog-a", trial));
        }
    }

    #[test]
    fn different_trials_and_programs_draw_independently() {
        let f = FaultModel::from_rate(7, 0.5);
        let per_trial: Vec<FaultDraw> = (0..64).map(|t| f.draw("prog-a", t)).collect();
        let other_prog: Vec<FaultDraw> = (0..64).map(|t| f.draw("prog-b", t)).collect();
        assert_ne!(per_trial, other_prog, "streams must not be shared across programs");
        assert!(
            per_trial.iter().any(|d| *d != FaultDraw::Clean),
            "at rate 0.5 some of 64 draws must fault"
        );
        assert!(
            per_trial.contains(&FaultDraw::Clean),
            "at rate 0.5 some of 64 draws must stay clean"
        );
    }

    #[test]
    fn zero_rate_is_always_clean() {
        let f = FaultModel::from_rate(1, 0.0);
        assert!(!f.is_active());
        assert!((0..256).all(|t| f.draw("p", t) == FaultDraw::Clean));
    }

    #[test]
    fn empirical_rate_tracks_configured_rate() {
        let f = FaultModel::from_rate(3, 0.25);
        let n = 4000;
        let faults = (0..n).filter(|&t| f.draw("p", t) != FaultDraw::Clean).count();
        let rate = faults as f64 / n as f64;
        assert!((0.18..0.32).contains(&rate), "empirical rate {rate} off target 0.25");
    }

    #[test]
    fn every_class_eventually_fires() {
        let f = FaultModel::from_rate(9, 0.5);
        let mut seen = std::collections::HashSet::new();
        for t in 0..4000 {
            match f.draw("p", t) {
                FaultDraw::Fault(k) => {
                    seen.insert(k);
                }
                FaultDraw::Outlier(m) => {
                    assert!(m >= 1.0);
                    seen.insert(FaultKind::Outlier);
                }
                FaultDraw::Clean => {}
            }
        }
        for k in [
            FaultKind::CompileError,
            FaultKind::Timeout,
            FaultKind::DeviceReset,
            FaultKind::Outlier,
        ] {
            assert!(seen.contains(&k), "{k} never fired in 4000 draws");
        }
    }

    #[test]
    fn rel_std_is_scale_free() {
        let m = Measurement { mean_s: 2e-3, variance: 1e-6 };
        assert!((m.rel_std() - 0.5).abs() < 1e-12);
        assert_eq!(Measurement { mean_s: 0.0, variance: 1.0 }.rel_std(), 0.0);
    }
}
