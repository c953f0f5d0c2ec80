//! Tuning curves: best-so-far latency versus trials and search time.

use serde::{Deserialize, Serialize};

/// One point on a tuning curve, recorded after each round.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CurvePoint {
    /// Measurements taken so far.
    pub trials: u64,
    /// Simulated search time elapsed, seconds.
    pub search_time_s: f64,
    /// Best (weighted end-to-end for networks) latency so far, seconds.
    pub best_latency_s: f64,
}

/// The best-so-far trajectory of one tuning campaign.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TuningCurve {
    points: Vec<CurvePoint>,
}

impl TuningCurve {
    /// An empty curve.
    pub fn new() -> TuningCurve {
        TuningCurve::default()
    }

    /// Appends a point.
    ///
    /// # Panics
    /// Panics if trials or time move backwards.
    pub fn push(&mut self, point: CurvePoint) {
        if let Some(last) = self.points.last() {
            assert!(point.trials >= last.trials, "trials must be monotone");
            assert!(point.search_time_s >= last.search_time_s, "time must be monotone");
        }
        self.points.push(point);
    }

    /// All recorded points.
    pub fn points(&self) -> &[CurvePoint] {
        &self.points
    }

    /// Final best latency (∞ for an empty curve).
    pub fn final_latency(&self) -> f64 {
        self.points.last().map(|p| p.best_latency_s).unwrap_or(f64::INFINITY)
    }

    /// First search time at which the curve reaches `target` latency
    /// (`None` if it never does) — the "search time required to reach the
    /// performance of X" of Figures 10, 14 and 15.
    pub fn time_to_reach(&self, target: f64) -> Option<f64> {
        self.points.iter().find(|p| p.best_latency_s <= target).map(|p| p.search_time_s)
    }
}

impl FromIterator<CurvePoint> for TuningCurve {
    fn from_iter<T: IntoIterator<Item = CurvePoint>>(iter: T) -> Self {
        let mut c = TuningCurve::new();
        for p in iter {
            c.push(p);
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> TuningCurve {
        [
            CurvePoint { trials: 10, search_time_s: 30.0, best_latency_s: 5e-3 },
            CurvePoint { trials: 20, search_time_s: 65.0, best_latency_s: 3e-3 },
            CurvePoint { trials: 30, search_time_s: 100.0, best_latency_s: 2.5e-3 },
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn accessors() {
        let c = demo();
        assert_eq!(c.final_latency(), 2.5e-3);
    }

    #[test]
    fn time_to_reach_interpolates_points() {
        let c = demo();
        assert_eq!(c.time_to_reach(3e-3), Some(65.0));
        assert_eq!(c.time_to_reach(5e-3), Some(30.0));
        assert_eq!(c.time_to_reach(1e-3), None);
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn non_monotone_rejected() {
        let mut c = demo();
        c.push(CurvePoint { trials: 5, search_time_s: 200.0, best_latency_s: 1e-3 });
    }

    #[test]
    fn empty_curve_defaults() {
        let c = TuningCurve::new();
        assert!(c.final_latency().is_infinite());
        assert_eq!(c.time_to_reach(1.0), None);
    }
}
