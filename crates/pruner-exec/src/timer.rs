//! Robust wall-clock timing: warmup, pilot-sized repetition windows, and
//! outlier-trimmed aggregation.
//!
//! CPU wall time on a shared machine is noisy in one direction — scheduler
//! preemption, frequency ramps and cache pollution only ever make a run
//! *slower*. The estimator here leans on that: after a warmup run, a pilot
//! measurement sizes an inner repetition count so each sample spans a
//! minimum window, the largest samples are trimmed, and the reported mean
//! is the lower median of what remains.

use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Configuration of the wall-clock estimator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimerConfig {
    /// Untimed warmup runs before the pilot (cache/branch-predictor warm).
    pub warmup: u32,
    /// Timed samples to collect (each a mean over `inner` runs).
    pub samples: u32,
    /// Minimum wall-clock window per sample, seconds; the pilot run sizes
    /// the inner repetition count to reach it.
    pub min_window_s: f64,
    /// Upper bound on the inner repetition count.
    pub max_inner: u32,
    /// Number of largest samples to drop before aggregating (one-sided
    /// trim: wall-clock noise is additive).
    pub trim: u32,
}

impl Default for TimerConfig {
    fn default() -> Self {
        TimerConfig { warmup: 1, samples: 5, min_window_s: 2e-4, max_inner: 64, trim: 1 }
    }
}

/// A trimmed wall-clock estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WallEstimate {
    /// Lower median of the kept per-run means, seconds.
    pub mean_s: f64,
    /// Population variance of the kept per-run means, seconds².
    pub variance: f64,
    /// Inner repetitions per sample chosen by the pilot.
    pub inner: u32,
}

/// Measures `run` per [`TimerConfig`] and returns the trimmed estimate.
pub(crate) fn measure_wall<F: FnMut()>(cfg: &TimerConfig, mut run: F) -> WallEstimate {
    for _ in 0..cfg.warmup {
        run();
    }
    // Pilot: one timed run sizes the inner repetition count so each sample
    // spans at least the configured window.
    let pilot_start = Instant::now();
    run();
    let pilot_s = pilot_start.elapsed().as_secs_f64().max(1e-9);
    let inner = ((cfg.min_window_s / pilot_s).ceil() as u32).clamp(1, cfg.max_inner.max(1));

    let samples = cfg.samples.max(2);
    let mut means: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..inner {
                run();
            }
            start.elapsed().as_secs_f64() / inner as f64
        })
        .collect();
    means.sort_by(|a, b| a.total_cmp(b));
    let keep = means.len() - (cfg.trim as usize).min(means.len() - 1);
    let kept = &means[..keep];

    let mean_s = kept[(kept.len() - 1) / 2];
    let avg = kept.iter().sum::<f64>() / kept.len() as f64;
    let variance =
        kept.iter().map(|m| (m - avg) * (m - avg)).sum::<f64>() / kept.len() as f64;
    WallEstimate { mean_s, variance, inner }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimate_is_positive_and_trims_the_tail() {
        let cfg = TimerConfig { min_window_s: 1e-5, ..TimerConfig::default() };
        let mut x = 0u64;
        let est = measure_wall(&cfg, || {
            for i in 0..1000u64 {
                x = x.wrapping_add(i * i);
            }
            std::hint::black_box(x);
        });
        assert!(est.mean_s > 0.0);
        assert!(est.variance >= 0.0);
        assert!(est.inner >= 1 && est.inner <= cfg.max_inner);
    }

    #[test]
    fn pilot_scales_inner_for_fast_bodies() {
        let cfg = TimerConfig { min_window_s: 1e-3, max_inner: 64, ..TimerConfig::default() };
        let est = measure_wall(&cfg, || {
            std::hint::black_box(1 + 1);
        });
        // A near-instant body must hit the inner-repetition cap.
        assert_eq!(est.inner, 64);
    }

    #[test]
    fn config_round_trips_through_json() {
        let cfg = TimerConfig { samples: 9, trim: 2, ..TimerConfig::default() };
        let json = serde_json::to_string(&cfg).unwrap();
        let back: TimerConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cfg);
    }
}
