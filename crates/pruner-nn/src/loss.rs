//! Training objectives: MSE on the tape, LambdaRank as an injected seed
//! gradient.

use crate::graph::{Graph, NodeId};

/// Builds the mean-squared-error loss node between `pred` (`[n,1]`) and the
/// target vector.
///
/// # Panics
/// Panics if the prediction shape and the target length disagree.
pub fn mse_loss(g: &mut Graph, pred: NodeId, targets: &[f32]) -> NodeId {
    let shape = g.value(pred).shape();
    assert_eq!(shape, (targets.len(), 1), "mse target length mismatch");
    let mut t = g.scratch(targets.len(), 1);
    t.as_mut_slice().copy_from_slice(targets);
    let t = g.constant(t);
    let neg = g.scale(t, -1.0);
    let diff = g.add(pred, neg);
    let sq = g.mul(diff, diff);
    g.mean_all(sq)
}

/// Computes the LambdaRank seed gradient ∂L/∂sᵢ for one ranking list.
///
/// `scores` are the model outputs, `relevance` the ground-truth relevance
/// (higher = better program; use normalized throughput, *not* latency).
/// The result is injected at the score node with
/// [`Graph::backward_from`].
///
/// The implementation follows Burges' LambdaRank: for every pair with
/// `relᵢ > relⱼ`, `λ = -σ / (1 + exp(σ (sᵢ - sⱼ)))`, weighted by the
/// |ΔNDCG| of swapping the pair under the current predicted order. The
/// NDCG gain and discount are functions of one item each, so they are
/// evaluated once per item, not once per pair.
///
/// A diverged model can emit NaN or ±∞ scores; such a list has no usable
/// order, so it gets all-zero lambdas (the update is skipped) rather than
/// a panic — the same degrade-gracefully rule the proposal ranking uses.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn lambdarank_grad(scores: &[f32], relevance: &[f32]) -> Vec<f32> {
    assert_eq!(scores.len(), relevance.len(), "score/relevance length mismatch");
    let n = scores.len();
    let mut lambdas = vec![0.0f32; n];
    if n < 2 || scores.iter().any(|s| !s.is_finite()) {
        return lambdas;
    }
    let sigma = 1.0f32;

    // Rank positions under the current scores (descending).
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).expect("finite scores"));
    let mut rank = vec![0usize; n];
    for (pos, &i) in order.iter().enumerate() {
        rank[i] = pos;
    }

    let gain = |r: f32| 2.0f32.powf(4.0 * r) - 1.0;
    let discount = |pos: usize| 1.0 / ((pos as f32 + 2.0).log2());
    // Ideal DCG for normalization.
    let mut ideal: Vec<f32> = relevance.to_vec();
    ideal.sort_by(|a, b| b.partial_cmp(a).expect("finite relevance"));
    let idcg: f32 = ideal.iter().enumerate().map(|(p, &r)| gain(r) * discount(p)).sum();
    let idcg = idcg.max(1e-6);

    let gains: Vec<f32> = relevance.iter().map(|&r| gain(r)).collect();
    let discounts: Vec<f32> = rank.iter().map(|&pos| discount(pos)).collect();
    for i in 0..n {
        for j in 0..n {
            if relevance[i] <= relevance[j] {
                continue;
            }
            // i should be ranked above j.
            let s_diff = sigma * (scores[i] - scores[j]);
            let rho = 1.0 / (1.0 + s_diff.exp());
            let delta_ndcg =
                ((gains[i] - gains[j]) * (discounts[i] - discounts[j])).abs() / idcg;
            let lambda = sigma * rho * delta_ndcg;
            // Loss decreases when s_i grows: gradient is negative for i.
            lambdas[i] -= lambda;
            lambdas[j] += lambda;
        }
    }
    lambdas
}

/// Converts measured latencies into relevance labels in `[0, 1]`
/// (fastest program → 1).
///
/// # Panics
/// Panics if any latency is non-positive.
pub fn latencies_to_relevance(latencies: &[f64]) -> Vec<f32> {
    let best = latencies.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(best > 0.0, "latencies must be positive");
    latencies.iter().map(|&l| (best / l) as f32).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    #[test]
    fn mse_zero_for_perfect_fit() {
        let mut g = Graph::new();
        let pred = g.input(Tensor::from_vec(3, 1, vec![1.0, 2.0, 3.0]));
        let loss = mse_loss(&mut g, pred, &[1.0, 2.0, 3.0]);
        assert_eq!(g.value(loss).at(0, 0), 0.0);
    }

    #[test]
    fn mse_gradient_points_toward_target() {
        let mut g = Graph::new();
        let pred = g.input(Tensor::from_vec(2, 1, vec![0.0, 4.0]));
        let loss = mse_loss(&mut g, pred, &[1.0, 2.0]);
        g.backward(loss);
        let grad = g.grad(pred).unwrap();
        assert!(grad.at(0, 0) < 0.0, "should push the low prediction up");
        assert!(grad.at(1, 0) > 0.0, "should push the high prediction down");
    }

    /// A training step returns to the pool every buffer it drew: the MSE
    /// targets and a LambdaRank seed come from `Graph::scratch`, so the pool
    /// stops growing once warm.
    #[test]
    fn training_steps_keep_the_buffer_pool_flat() {
        use crate::layers::Mlp;
        use rand::SeedableRng;
        use rand_chacha::ChaCha8Rng;

        let mlp = Mlp::new(&[1, 8, 1], &mut ChaCha8Rng::seed_from_u64(5));
        let xs = Tensor::from_vec(4, 1, vec![0.1, 0.9, 0.3, 0.7]);
        let targets = [0.2f32, 1.0, 0.4, 0.8];
        let mut g = Graph::new();
        let mut pooled = Vec::new();
        for _ in 0..300 {
            g.reset();
            let x = g.input_ref(&xs);
            let pred = mlp.forward(&mut g, x);
            let loss = mse_loss(&mut g, pred, &targets);
            g.backward(loss);
            let lambdas = lambdarank_grad(g.value(pred).as_slice(), &targets);
            let mut seed = g.scratch(4, 1);
            seed.as_mut_slice().copy_from_slice(&lambdas);
            g.backward_from(pred, seed);
            pooled.push(g.workspace().pooled());
        }
        assert!(pooled[2..].iter().all(|&n| n == pooled[2]), "pool grew: {:?}", &pooled[..8]);
    }

    #[test]
    fn lambdarank_pushes_relevant_up() {
        // Item 0 is most relevant but scored lowest.
        let scores = [0.0f32, 1.0, 2.0];
        let rel = [1.0f32, 0.5, 0.1];
        let l = lambdarank_grad(&scores, &rel);
        assert!(l[0] < 0.0, "most relevant gets a negative (upward) gradient");
        assert!(l[2] > 0.0, "least relevant gets a positive (downward) gradient");
        // Lambdas sum to zero: pure reordering force.
        let sum: f32 = l.iter().sum();
        assert!(sum.abs() < 1e-5);
    }

    #[test]
    fn lambdarank_small_for_correct_order() {
        let scores = [3.0f32, 2.0, 1.0];
        let rel = [1.0f32, 0.5, 0.1];
        let correct = lambdarank_grad(&scores, &rel);
        let wrong = lambdarank_grad(&[1.0, 2.0, 3.0], &rel);
        let n_c: f32 = correct.iter().map(|v| v.abs()).sum();
        let n_w: f32 = wrong.iter().map(|v| v.abs()).sum();
        assert!(n_c < n_w, "mis-ordered lists must receive larger forces");
    }

    #[test]
    fn lambdarank_trivial_lists() {
        assert_eq!(lambdarank_grad(&[], &[]), Vec::<f32>::new());
        assert_eq!(lambdarank_grad(&[1.0], &[1.0]), vec![0.0]);
        // Equal relevance → no pairs → zero lambdas.
        assert_eq!(lambdarank_grad(&[1.0, 2.0], &[0.5, 0.5]), vec![0.0, 0.0]);
    }

    /// The pair loop as it stood before the gain/discount hoist: `powf`
    /// and `log2` evaluated per pair. The oracle for the hoisted version.
    fn lambdarank_grad_per_pair(scores: &[f32], relevance: &[f32]) -> Vec<f32> {
        let n = scores.len();
        let mut lambdas = vec![0.0f32; n];
        if n < 2 {
            return lambdas;
        }
        let sigma = 1.0f32;
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).expect("finite scores"));
        let mut rank = vec![0usize; n];
        for (pos, &i) in order.iter().enumerate() {
            rank[i] = pos;
        }
        let gain = |r: f32| 2.0f32.powf(4.0 * r) - 1.0;
        let discount = |pos: usize| 1.0 / ((pos as f32 + 2.0).log2());
        let mut ideal: Vec<f32> = relevance.to_vec();
        ideal.sort_by(|a, b| b.partial_cmp(a).expect("finite relevance"));
        let idcg: f32 = ideal.iter().enumerate().map(|(p, &r)| gain(r) * discount(p)).sum();
        let idcg = idcg.max(1e-6);
        for i in 0..n {
            for j in 0..n {
                if relevance[i] <= relevance[j] {
                    continue;
                }
                let s_diff = sigma * (scores[i] - scores[j]);
                let rho = 1.0 / (1.0 + s_diff.exp());
                let delta_ndcg = ((gain(relevance[i]) - gain(relevance[j]))
                    * (discount(rank[i]) - discount(rank[j])))
                .abs()
                    / idcg;
                let lambda = sigma * rho * delta_ndcg;
                lambdas[i] -= lambda;
                lambdas[j] += lambda;
            }
        }
        lambdas
    }

    #[test]
    fn hoisted_lambdarank_is_bit_identical_to_per_pair_loop() {
        use rand::{Rng, SeedableRng};
        use rand_chacha::ChaCha8Rng;

        let mut rng = ChaCha8Rng::seed_from_u64(23);
        for case in 0..200 {
            let n = rng.gen_range(2..40);
            // Draw from small pools so score ties (incl. ±0) and relevance
            // ties are common, not a measure-zero accident.
            let coarse = case % 2 == 0;
            let scores: Vec<f32> = (0..n)
                .map(|_| match rng.gen_range(0..8) {
                    0 => 0.0,
                    1 => -0.0,
                    _ if coarse => rng.gen_range(-3i32..=3) as f32 * 0.5,
                    _ => rng.gen_range(-4.0f32..4.0),
                })
                .collect();
            let rel: Vec<f32> = (0..n)
                .map(|_| {
                    if coarse {
                        rng.gen_range(0u32..=4) as f32 / 4.0
                    } else {
                        rng.gen_range(0.0f32..=1.0)
                    }
                })
                .collect();
            let bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<_>>();
            assert_eq!(
                bits(lambdarank_grad(&scores, &rel)),
                bits(lambdarank_grad_per_pair(&scores, &rel)),
                "case {case}: scores {scores:?} rel {rel:?}"
            );
        }
    }

    #[test]
    fn lambdarank_non_finite_scores_skip_the_update() {
        let rel = [1.0f32, 0.5, 0.1, 0.7];
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            for at in 0..rel.len() {
                let mut scores = [0.3f32, -1.0, 2.0, 0.0];
                scores[at] = bad;
                assert_eq!(
                    lambdarank_grad(&scores, &rel),
                    vec![0.0; rel.len()],
                    "{bad} at {at} must zero the step"
                );
            }
        }
        assert_eq!(lambdarank_grad(&[f32::NAN; 3], &[0.1, 0.2, 0.3]), vec![0.0; 3]);
        // Finite lists next to the guard still get real forces.
        assert!(lambdarank_grad(&[0.3, -1.0, 2.0, 0.0], &rel).iter().any(|&l| l != 0.0));
    }

    #[test]
    fn relevance_normalization() {
        let rel = latencies_to_relevance(&[2e-3, 1e-3, 4e-3]);
        assert_eq!(rel[1], 1.0);
        assert!((rel[0] - 0.5).abs() < 1e-6);
        assert!((rel[2] - 0.25).abs() < 1e-6);
    }

    #[test]
    fn training_with_lambdarank_orders_items() {
        use crate::layers::{Mlp, Module};
        use crate::optim::Adam;
        use rand::SeedableRng;
        use rand_chacha::ChaCha8Rng;

        // Features: single dimension x; true relevance grows with x.
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut mlp = Mlp::new(&[1, 16, 1], &mut rng);
        let xs = Tensor::from_vec(6, 1, vec![0.1, 0.9, 0.3, 0.7, 0.5, 0.2]);
        let rel: Vec<f32> = xs.as_slice().to_vec();
        let mut adam = Adam::new(0.02);
        for _ in 0..200 {
            mlp.zero_grad();
            let mut g = Graph::new();
            let x = g.input(xs.clone());
            let scores = mlp.forward(&mut g, x);
            let sv: Vec<f32> = g.value(scores).as_slice().to_vec();
            let lambdas = lambdarank_grad(&sv, &rel);
            let seed = Tensor::from_vec(6, 1, lambdas);
            g.backward_from(scores, seed);
            mlp.absorb_grads(&g);
            adam.step(mlp.params_mut());
        }
        // Final scores must rank x=0.9 above x=0.1.
        let mut g = Graph::new();
        let x = g.input(xs.clone());
        let scores = mlp.forward(&mut g, x);
        let sv = g.value(scores);
        assert!(sv.at(1, 0) > sv.at(0, 0), "ranking failed: {:?}", sv.as_slice());
        assert!(sv.at(3, 0) > sv.at(5, 0));
    }
}
