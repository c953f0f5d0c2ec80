//! Evaluation metrics from the paper's Appendix A.
//!
//! * [`top_k`] (Eq. 5) — quality of a *cost model*: the true optimum's
//!   latency over the best latency among the model's top-k picks, weighted
//!   by subgraph occurrence counts. 1.0 means the model's top-k always
//!   contains the optimum.
//! * [`best_k`] (Eq. 6) — quality of a *search space*: the full-space
//!   optimum over the k-th best latency inside the sampled space.
//!
//! Both are "higher is better" ratios in `(0, 1]`.

/// One task's ground truth for the [`top_k`] metric: every candidate's
/// measured latency and the model's scores over the same candidates.
#[derive(Debug, Clone)]
pub struct TaskEval {
    /// Subgraph occurrence weight `w_i`.
    pub weight: u64,
    /// Ground-truth latency of every candidate (seconds).
    pub latencies: Vec<f64>,
    /// Model scores (higher = predicted better), parallel to `latencies`.
    pub scores: Vec<f32>,
}

/// One task's ground truth for the [`best_k`] metric: the optimum over the
/// *entire* space and the latencies inside the sampled sub-space.
#[derive(Debug, Clone)]
pub struct SpaceEval {
    /// Subgraph occurrence weight `w_i`.
    pub weight: u64,
    /// True optimal latency over the whole space (`L*_i`).
    pub full_optimum: f64,
    /// Latencies of the programs inside the sampled space.
    pub space_latencies: Vec<f64>,
}

/// Top-k (Eq. 5): `Σ_i w_i·L*_i / Σ_i w_i·min_{j≤k} L_{i,j}` where `j`
/// ranges over the model's k highest-scored candidates.
///
/// # Panics
/// Panics if `k` is zero, any task is empty, or score/latency lengths
/// disagree.
pub fn top_k(tasks: &[TaskEval], k: usize) -> f64 {
    assert!(k > 0, "k must be positive");
    let mut num = 0.0;
    let mut den = 0.0;
    for t in tasks {
        assert!(!t.latencies.is_empty(), "task with no candidates");
        assert_eq!(t.latencies.len(), t.scores.len(), "score/latency mismatch");
        let optimum = t.latencies.iter().cloned().fold(f64::INFINITY, f64::min);
        // Indices of the k highest scores.
        let mut idx: Vec<usize> = (0..t.scores.len()).collect();
        idx.sort_by(|&a, &b| t.scores[b].partial_cmp(&t.scores[a]).expect("finite scores"));
        let picked_best = idx
            .iter()
            .take(k)
            .map(|&i| t.latencies[i])
            .fold(f64::INFINITY, f64::min);
        num += t.weight as f64 * optimum;
        den += t.weight as f64 * picked_best;
    }
    num / den
}

/// Best-k (Eq. 6): `Σ_i w_i·L*_i / Σ_i w_i·L̂_{i,k}` where `L̂_{i,k}` is the
/// k-th smallest latency inside task `i`'s sampled space.
///
/// If a space holds fewer than `k` programs its worst latency is used.
///
/// # Panics
/// Panics if `k` is zero or any space is empty.
pub fn best_k(spaces: &[SpaceEval], k: usize) -> f64 {
    assert!(k > 0, "k must be positive");
    let mut num = 0.0;
    let mut den = 0.0;
    for s in spaces {
        assert!(!s.space_latencies.is_empty(), "empty sampled space");
        let mut lats = s.space_latencies.clone();
        lats.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let kth = lats[(k - 1).min(lats.len() - 1)];
        num += s.weight as f64 * s.full_optimum;
        den += s.weight as f64 * kth;
    }
    num / den
}

/// Spearman rank correlation between two slices (shared by tests, the
/// feasibility benches and the fleet's probe score): the Pearson
/// correlation of their average ranks, so tied values share one rank.
/// Values are ordered by `total_cmp`, so NaN scores rank instead of
/// panicking. Returns 0 for fewer than two points or a constant side,
/// where rank order is undefined.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn spearman(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    if a.len() < 2 {
        return 0.0;
    }
    let (ra, rb) = (average_ranks(a), average_ranks(b));
    let n = a.len() as f64;
    let ma = ra.iter().sum::<f64>() / n;
    let mb = rb.iter().sum::<f64>() / n;
    let (mut cov, mut va, mut vb) = (0.0, 0.0, 0.0);
    for (x, y) in ra.iter().zip(&rb) {
        cov += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    if va == 0.0 || vb == 0.0 {
        return 0.0;
    }
    cov / (va * vb).sqrt()
}

/// 1-based ranks of `v`, each run of equal values sharing the average of
/// its positions.
fn average_ranks(v: &[f64]) -> Vec<f64> {
    let mut order: Vec<usize> = (0..v.len()).collect();
    order.sort_by(|&i, &j| v[i].total_cmp(&v[j]));
    let mut ranks = vec![0.0; v.len()];
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && v[order[j + 1]] == v[order[i]] {
            j += 1;
        }
        for &k in &order[i..=j] {
            ranks[k] = (i + j) as f64 / 2.0 + 1.0;
        }
        i = j + 1;
    }
    ranks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_1_perfect_model() {
        let t = TaskEval {
            weight: 1,
            latencies: vec![3.0, 1.0, 2.0],
            scores: vec![0.1, 0.9, 0.5], // highest score on the fastest
        };
        assert_eq!(top_k(&[t], 1), 1.0);
    }

    #[test]
    fn top_1_worst_model() {
        let t = TaskEval {
            weight: 1,
            latencies: vec![3.0, 1.0],
            scores: vec![0.9, 0.1], // picks the slow one
        };
        assert!((top_k(std::slice::from_ref(&t), 1) - 1.0 / 3.0).abs() < 1e-12);
        // Top-2 recovers the optimum.
        assert_eq!(top_k(&[t], 2), 1.0);
    }

    #[test]
    fn top_k_weights_tasks() {
        let good = TaskEval { weight: 3, latencies: vec![1.0, 2.0], scores: vec![1.0, 0.0] };
        let bad = TaskEval { weight: 1, latencies: vec![1.0, 2.0], scores: vec![0.0, 1.0] };
        // Weighted: (3*1 + 1*1) / (3*1 + 1*2) = 4/5.
        assert!((top_k(&[good, bad], 1) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn best_k_full_space_is_one() {
        let s = SpaceEval {
            weight: 1,
            full_optimum: 1.0,
            space_latencies: vec![4.0, 1.0, 2.0],
        };
        assert_eq!(best_k(std::slice::from_ref(&s), 1), 1.0);
        assert_eq!(best_k(std::slice::from_ref(&s), 2), 0.5);
        // k beyond space size falls back to the worst entry.
        assert_eq!(best_k(&[s], 10), 0.25);
    }

    #[test]
    fn best_k_detects_missing_optimum() {
        let s = SpaceEval {
            weight: 1,
            full_optimum: 1.0,
            space_latencies: vec![2.0, 3.0], // optimum pruned away
        };
        assert_eq!(best_k(&[s], 1), 0.5);
    }

    #[test]
    fn spearman_extremes() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [10.0, 20.0, 30.0, 40.0];
        assert!((spearman(&a, &b) - 1.0).abs() < 1e-9);
        let c = [40.0, 30.0, 20.0, 10.0];
        assert!((spearman(&a, &c) + 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_rejected() {
        top_k(&[], 0);
    }
}
