//! Optimizers.

use crate::layers::Param;
use serde::{Deserialize, Serialize};

/// Adam optimizer (Kingma & Ba) with decoupled step counting.
///
/// Serializable so crash-safe tuner checkpoints can capture the step
/// counter `t` (which drives bias correction) along with the moment
/// tensors stored in each [`Param`] — without it a resumed fine-tuning
/// run would diverge from an uninterrupted one.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// Exponential decay for the first moment.
    pub beta1: f32,
    /// Exponential decay for the second moment.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    /// L2 weight decay applied to the gradient.
    pub weight_decay: f32,
    t: u64,
}

impl Adam {
    /// Adam with the usual defaults and the given learning rate.
    pub fn new(lr: f32) -> Adam {
        Adam { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, weight_decay: 0.0, t: 0 }
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Applies one update to the given parameters using their `grad`s.
    ///
    /// One pass over each parameter's four zipped slices (value, grad and
    /// the two moments): no per-element bounds checks, so the compiler can
    /// vectorise it. Every element is the same f32 expression as the
    /// per-index update. The bias-correction exponent saturates at
    /// `i32::MAX`, where `βᵗ` is already 0, and the step count at
    /// `u64::MAX`: a step count restored from a file can never wrap the
    /// exponent to 0 or below and poison the weights.
    ///
    /// # Panics
    /// Panics if a parameter's gradient or moments differ in length from
    /// its value (possible only in a malformed restored model).
    pub fn step(&mut self, params: Vec<&mut Param>) {
        self.t = self.t.saturating_add(1);
        let (b1t, b2t) = self.bias_corrections();
        let Adam { lr, beta1, beta2, eps, weight_decay, .. } = *self;
        for p in params {
            let Param { value, grad, m, v } = p;
            let n = value.len();
            assert!(
                grad.len() == n && m.len() == n && v.len() == n,
                "parameter gradient and moments must match its value's length"
            );
            let moments = m.as_mut_slice().iter_mut().zip(v.as_mut_slice());
            for ((x, &g), (m, v)) in
                value.as_mut_slice().iter_mut().zip(grad.as_slice()).zip(moments)
            {
                let g = g + weight_decay * *x;
                *m = beta1 * *m + (1.0 - beta1) * g;
                *v = beta2 * *v + (1.0 - beta2) * g * g;
                let mhat = *m / b1t;
                let vhat = *v / b2t;
                *x -= lr * mhat / (vhat.sqrt() + eps);
            }
        }
    }

    /// `(1 − β₁ᵗ, 1 − β₂ᵗ)` for the current step count.
    fn bias_corrections(&self) -> (f32, f32) {
        let t = i32::try_from(self.t).unwrap_or(i32::MAX);
        (1.0 - self.beta1.powi(t), 1.0 - self.beta2.powi(t))
    }

    /// The per-index update `step` replaced: the oracle its one-pass loop
    /// is held to bit for bit.
    #[cfg(test)]
    fn step_indexed(&mut self, params: Vec<&mut Param>) {
        self.t += 1;
        let (b1t, b2t) = self.bias_corrections();
        for p in params {
            for i in 0..p.value.len() {
                let g = p.grad.as_slice()[i] + self.weight_decay * p.value.as_slice()[i];
                let m = &mut p.m.as_mut_slice()[i];
                *m = self.beta1 * *m + (1.0 - self.beta1) * g;
                let v = &mut p.v.as_mut_slice()[i];
                *v = self.beta2 * *v + (1.0 - self.beta2) * g * g;
                let mhat = p.m.as_slice()[i] / b1t;
                let vhat = p.v.as_slice()[i] / b2t;
                p.value.as_mut_slice()[i] -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::layers::{Linear, Module};
    use crate::tensor::Tensor;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn loss_of(lin: &Linear, xs: &Tensor, ys: &Tensor) -> (f32, Graph) {
        let mut g = Graph::new();
        let x = g.input(xs.clone());
        let pred = lin.forward(&mut g, x);
        let t = g.input(ys.clone());
        let neg = g.scale(t, -1.0);
        let diff = g.add(pred, neg);
        let sq = g.mul(diff, diff);
        let loss = g.mean_all(sq);
        let lv = g.value(loss).at(0, 0);
        g.backward(loss);
        (lv, g)
    }

    #[test]
    fn adam_converges_on_linear_fit() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut lin = Linear::new(2, 1, &mut rng);
        let xs = Tensor::from_vec(4, 2, vec![0., 0., 0., 1., 1., 0., 1., 1.]);
        let ys = Tensor::from_vec(4, 1, vec![0., 2., 3., 5.]); // y = 3a + 2b
        let mut adam = Adam::new(0.05);
        let mut final_loss = f32::MAX;
        for _ in 0..500 {
            lin.zero_grad();
            let (lv, g) = loss_of(&lin, &xs, &ys);
            final_loss = lv;
            lin.absorb_grads(&g);
            adam.step(lin.params_mut());
        }
        assert!(final_loss < 1e-3, "adam failed to fit: {final_loss}");
        assert_eq!(adam.steps(), 500);
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut lin = Linear::new(4, 4, &mut rng);
        let before = lin.params_mut()[0].value.norm();
        let mut adam = Adam::new(0.01);
        adam.weight_decay = 1.0;
        for _ in 0..50 {
            lin.zero_grad(); // pure decay, no data gradient
            adam.step(lin.params_mut());
        }
        let after = lin.params_mut()[0].value.norm();
        assert!(after < before, "decay should shrink weights: {before} -> {after}");
    }

    /// Parameters of several shapes with seeded values and gradients.
    fn seeded_params(seed: u64) -> Vec<Param> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        [(7, 5), (1, 5), (33, 17), (1, 1)]
            .into_iter()
            .map(|(r, c)| {
                let mut p = Param::new(Tensor::kaiming(r, c, &mut rng));
                p.grad = Tensor::kaiming(r, c, &mut rng);
                p
            })
            .collect()
    }

    fn bits(params: &[Param]) -> Vec<u32> {
        params
            .iter()
            .flat_map(|p| [&p.value, &p.m, &p.v])
            .flat_map(|t| t.as_slice().iter().map(|v| v.to_bits()))
            .collect()
    }

    #[test]
    fn one_pass_step_is_bit_identical_to_the_indexed_loop() {
        for weight_decay in [0.0, 0.01] {
            let (mut fast, mut oracle) = (seeded_params(7), seeded_params(7));
            let mut a = Adam { weight_decay, ..Adam::new(0.01) };
            let mut b = a.clone();
            for step in 0..20u64 {
                // A fresh gradient each step, so the moments carry history.
                let grads = seeded_params(100 + step);
                for ((f, o), g) in fast.iter_mut().zip(&mut oracle).zip(&grads) {
                    f.grad = g.grad.clone();
                    o.grad = g.grad.clone();
                }
                a.step(fast.iter_mut().collect());
                b.step_indexed(oracle.iter_mut().collect());
                assert_eq!(bits(&fast), bits(&oracle), "step {step}, decay {weight_decay}");
            }
            assert_eq!(a.steps(), b.steps());
        }
    }

    #[test]
    fn a_huge_restored_step_count_keeps_the_weights_finite() {
        // `t` is serialised with the optimizer; a corrupt or hostile file
        // can carry any u64. Past `i32::MAX` the exponent used to wrap.
        for t in [i32::MAX as u64, u64::MAX - 1, u64::MAX] {
            let mut params = seeded_params(9);
            let mut adam = Adam::new(0.01);
            adam.t = t;
            adam.step(params.iter_mut().collect());
            assert!(
                params.iter().all(|p| p.value.as_slice().iter().all(|v| v.is_finite())),
                "a step from t = {t} poisoned the weights"
            );
            assert_eq!(adam.steps(), t.saturating_add(1));
        }
    }

    #[test]
    #[should_panic(expected = "must match its value's length")]
    fn a_moment_of_another_length_is_refused() {
        // The zipped pass would otherwise update only the shorter prefix.
        let mut params = seeded_params(9);
        params[2].m = Tensor::zeros(1, 1);
        Adam::new(0.01).step(params.iter_mut().collect());
    }
}
