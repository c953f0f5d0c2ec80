//! Every rank statistic of the reproduction, defined once.
//!
//! The paper's Appendix A metrics:
//! * [`top_k`] (Eq. 5) — quality of a *cost model*: the true optimum's
//!   latency over the best latency among the model's top-k picks, weighted
//!   by subgraph occurrence counts. 1.0 means the model's top-k always
//!   contains the optimum.
//! * [`best_k`] (Eq. 6) — quality of a *search space*: the full-space
//!   optimum over the k-th best latency inside the sampled space.
//!
//! Both are "higher is better" ratios in `(0, 1]`.
//!
//! Rank agreement between two orderings of the same items — the fleet's
//! probe score and the simulator-fidelity study:
//! * [`spearman`] — Pearson correlation of average ranks, in `[-1, 1]`;
//! * [`kendall_tau`] — tie-adjusted pairwise concordance (τ-b), in `[-1, 1]`;
//! * [`top_k_overlap`] — the share of one side's k smallest items that
//!   are among the other side's k smallest, in `[0, 1]`.
//!
//! Every statistic orders values by `total_cmp`, so a NaN input ranks
//! (a positive NaN above every number) instead of panicking.

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
        idx.sort_by(|&a, &b| t.scores[b].total_cmp(&t.scores[a]));
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
        lats.sort_by(f64::total_cmp);
        let kth = lats[(k - 1).min(lats.len() - 1)];
        num += s.weight as f64 * s.full_optimum;
        den += s.weight as f64 * kth;
    }
    num / den
}

/// Spearman rank correlation between two slices: the Pearson correlation
/// of their average ranks, so tied values share one rank. Returns 0 for
/// fewer than two points or a constant side, where rank order is
/// undefined.
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

/// Kendall's τ-b rank correlation, O(n²): concordant minus discordant
/// pairs over `√((pairs − ties_a)·(pairs − ties_b))`, where a pair tied on
/// both sides counts in both tie totals. Returns 0 for fewer than two
/// points or a constant side.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn kendall_tau(a: &[f64], b: &[f64]) -> f64 {
    use std::cmp::Ordering::Equal;
    assert_eq!(a.len(), b.len(), "length mismatch");
    let n = a.len();
    let (mut concordant, mut discordant, mut ties_a, mut ties_b) = (0i64, 0i64, 0i64, 0i64);
    for i in 0..n {
        for j in i + 1..n {
            match (a[i].total_cmp(&a[j]), b[i].total_cmp(&b[j])) {
                (Equal, Equal) => (ties_a, ties_b) = (ties_a + 1, ties_b + 1),
                (Equal, _) => ties_a += 1,
                (_, Equal) => ties_b += 1,
                (x, y) if x == y => concordant += 1,
                _ => discordant += 1,
            }
        }
    }
    let pairs = (n * n.saturating_sub(1) / 2) as i64;
    let denom = (((pairs - ties_a) as f64) * ((pairs - ties_b) as f64)).sqrt();
    if denom == 0.0 {
        return 0.0;
    }
    (concordant - discordant) as f64 / denom
}

/// The share of the indices of `a`'s `k` smallest values that are also
/// among `b`'s `k` smallest (`k` capped at the length; 0 when it is 0).
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn top_k_overlap(a: &[f64], b: &[f64], k: usize) -> f64 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    let k = k.min(a.len());
    if k == 0 {
        return 0.0;
    }
    let smallest = |v: &[f64]| {
        let mut order: Vec<usize> = (0..v.len()).collect();
        order.sort_by(|&i, &j| v[i].total_cmp(&v[j]));
        order.truncate(k);
        order
    };
    let (sa, sb) = (smallest(a), smallest(b));
    sa.iter().filter(|i| sb.contains(i)).count() as f64 / k as f64
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
    fn top_k_ranks_a_nan_score_without_panicking() {
        // A positive NaN orders above every score, so it is the top-1 pick.
        let t = TaskEval { weight: 1, latencies: vec![3.0, 1.0], scores: vec![f32::NAN, 0.5] };
        assert!((top_k(std::slice::from_ref(&t), 1) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(top_k(&[t], 2), 1.0);
    }

    #[test]
    fn perfect_agreement_scores_one() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let ys = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert!((spearman(&xs, &ys) - 1.0).abs() < 1e-12);
        assert!((kendall_tau(&xs, &ys) - 1.0).abs() < 1e-12);
        assert_eq!(top_k_overlap(&xs, &ys, 2), 1.0);
    }

    #[test]
    fn perfect_reversal_scores_minus_one() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [4.0, 3.0, 2.0, 1.0];
        assert!((spearman(&xs, &ys) + 1.0).abs() < 1e-12);
        assert!((kendall_tau(&xs, &ys) + 1.0).abs() < 1e-12);
        assert_eq!(top_k_overlap(&xs, &ys, 1), 0.0);
    }

    #[test]
    fn ties_share_average_ranks() {
        assert_eq!(average_ranks(&[2.0, 1.0, 2.0, 3.0]), vec![2.5, 1.0, 2.5, 4.0]);
        // Ranks [1.5, 1.5, 3] against [1, 2, 3]: ρ = 1.5 / √3, where
        // ordinal ranks would read a perfect 1; τ-b = 2 / √6.
        let (xs, ys) = ([1.0, 1.0, 2.0], [1.0, 2.0, 3.0]);
        assert!((spearman(&xs, &ys) - 3f64.sqrt() / 2.0).abs() < 1e-12);
        assert!((kendall_tau(&xs, &ys) - 2.0 / 6f64.sqrt()).abs() < 1e-12);
        // A pair tied on both sides leaves both denominators: τ-b = 1.
        assert_eq!(kendall_tau(&xs, &[1.0, 1.0, 3.0]), 1.0);
        // Tied runs that line up on both sides still agree perfectly.
        let neg_latency = [-1.0, -3.0, -2.0, -3.0, -1.0, -2.0, -4.0];
        let scores = [3.0, 1.0, 2.0, 1.0, 3.0, 2.0, 0.0];
        assert!((spearman(&scores, &neg_latency) - 1.0).abs() < 1e-12);
        assert!((kendall_tau(&scores, &neg_latency) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn constant_sample_is_degenerate_zero() {
        let xs = [1.0, 1.0, 1.0];
        let ys = [1.0, 2.0, 3.0];
        assert_eq!(spearman(&xs, &ys), 0.0);
        assert_eq!(kendall_tau(&xs, &ys), 0.0);
        assert_eq!(spearman(&[0.5; 3], &[-1.0, -3.0, -2.0]), 0.0);
        // Fewer than two points have no rank order either.
        assert_eq!(spearman(&[1.0], &[2.0]), 0.0);
        assert_eq!(kendall_tau(&[], &[]), 0.0);
        assert_eq!(top_k_overlap(&[], &[], 3), 0.0);
    }

    #[test]
    fn monotone_but_nonlinear_is_still_rho_one() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let ys: Vec<f64> = xs.iter().map(|x: &f64| x.exp()).collect();
        assert!((spearman(&xs, &ys) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nan_ranks_above_every_number() {
        let (xs, ys) = ([f64::NAN, 1.0, 2.0], [3.0, 1.0, 2.0]);
        assert!((spearman(&xs, &ys) - 1.0).abs() < 1e-12);
        assert!((kendall_tau(&xs, &ys) - 1.0).abs() < 1e-12);
        assert_eq!(top_k_overlap(&xs, &ys, 2), 1.0);
        let rho = spearman(&[f64::NAN; 3], &[-1.0, -3.0, -2.0]);
        assert!(rho.is_finite(), "NaN scores must not poison ρ: {rho}");
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_rejected() {
        top_k(&[], 0);
    }
}
