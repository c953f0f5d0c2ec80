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
    pub fn step(&mut self, params: Vec<&mut Param>) {
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
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
}
