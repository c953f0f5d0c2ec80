//! Trainable layers.
//!
//! Layers own their [`Param`]s and define one forward pass, through
//! `&self`, that scores and trains alike. Binding a parameter records its
//! leaf on the tape; after `Graph::backward*`, [`Module::absorb_grads`]
//! pairs the recorded leaves with [`Module::params_mut`], in order, and
//! pulls the gradients back out of the tape.

use crate::graph::{Graph, NodeId};
use crate::tensor::Tensor;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A trainable tensor with its gradient and Adam moments.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Param {
    /// Current value.
    pub value: Tensor,
    /// Accumulated gradient.
    pub grad: Tensor,
    /// Adam first moment.
    pub m: Tensor,
    /// Adam second moment.
    pub v: Tensor,
}

impl Param {
    /// Wraps an initial value.
    pub fn new(value: Tensor) -> Param {
        let (r, c) = value.shape();
        Param {
            value,
            grad: Tensor::zeros(r, c),
            m: Tensor::zeros(r, c),
            v: Tensor::zeros(r, c),
        }
    }

    /// Binds the parameter onto the tape as a recorded parameter leaf.
    fn bind(&self, g: &mut Graph) -> NodeId {
        g.param(&self.value)
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&mut self) {
        self.grad.fill_zero();
    }

    /// Number of scalar weights.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// Whether the parameter is empty.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }
}

/// Anything with trainable parameters.
pub trait Module {
    /// Mutable access to every parameter, in a stable order.
    fn params_mut(&mut self) -> Vec<&mut Param>;

    /// Clears all gradients.
    fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Absorbs tape gradients into every parameter: the `k`-th parameter
    /// leaf the forward pass bound feeds the `k`-th entry of
    /// [`Module::params_mut`].
    ///
    /// # Panics
    /// Panics if the tape bound a different number of parameters than the
    /// module has, or a bound leaf's shape differs from its parameter's — a
    /// forward that skips or repeats a parameter would otherwise lose its
    /// gradient silently.
    fn absorb_grads(&mut self, g: &Graph) {
        let bound = g.bound_params();
        let params = self.params_mut();
        assert_eq!(
            params.len(),
            bound.len(),
            "the tape bound {} parameters, the module has {}",
            bound.len(),
            params.len()
        );
        for (p, &id) in params.into_iter().zip(bound) {
            assert_eq!(p.value.shape(), g.value(id).shape(), "bound parameter shape mismatch");
            if let Some(gr) = g.grad(id) {
                p.grad.axpy(1.0, gr);
            }
        }
    }

    /// Total scalar weight count.
    fn num_weights(&mut self) -> usize {
        self.params_mut().iter().map(|p| p.len()).sum()
    }

    /// Copies weights from another instance of the same architecture.
    ///
    /// # Panics
    /// Panics if the parameter lists have different shapes.
    fn copy_weights_from(&mut self, other: &mut Self) {
        let theirs: Vec<Tensor> = other.params_mut().iter().map(|p| p.value.clone()).collect();
        let mut mine = self.params_mut();
        assert_eq!(mine.len(), theirs.len(), "parameter count mismatch");
        for (p, t) in mine.iter_mut().zip(theirs) {
            assert_eq!(p.value.shape(), t.shape(), "parameter shape mismatch");
            p.value = t;
        }
    }

    /// In-place momentum blend: `self ← m·self + (1−m)·other`.
    ///
    /// This is the Siamese update of Momentum Transfer Learning.
    ///
    /// # Panics
    /// Panics on architecture mismatch or `momentum` outside `[0, 1]`.
    fn momentum_update_from(&mut self, other: &mut Self, momentum: f32) {
        assert!((0.0..=1.0).contains(&momentum), "momentum must be in [0,1]");
        let theirs: Vec<Tensor> = other.params_mut().iter().map(|p| p.value.clone()).collect();
        let mut mine = self.params_mut();
        assert_eq!(mine.len(), theirs.len(), "parameter count mismatch");
        for (p, t) in mine.iter_mut().zip(theirs) {
            assert_eq!(p.value.shape(), t.shape(), "parameter shape mismatch");
            for (a, &b) in p.value.as_mut_slice().iter_mut().zip(t.as_slice()) {
                *a = momentum * *a + (1.0 - momentum) * b;
            }
        }
    }
}

/// Fully connected layer `y = xW + b`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Linear {
    w: Param,
    b: Param,
}

impl Linear {
    /// Kaiming-initialized `in_dim → out_dim` layer.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Linear {
        Linear {
            w: Param::new(Tensor::kaiming(in_dim, out_dim, rng)),
            b: Param::new(Tensor::zeros(1, out_dim)),
        }
    }

    /// Applies the layer to `[n, in_dim]` activations as one fused
    /// [`Graph::linear`] node.
    pub fn forward(&self, g: &mut Graph, x: NodeId) -> NodeId {
        let w = self.w.bind(g);
        let b = self.b.bind(g);
        g.linear(x, w, b)
    }

    /// Applies the layer followed by a ReLU as one fused
    /// [`Graph::linear_relu`] node (bit-identical to `forward` + `relu`).
    pub fn forward_relu(&self, g: &mut Graph, x: NodeId) -> NodeId {
        let w = self.w.bind(g);
        let b = self.b.bind(g);
        g.linear_relu(x, w, b)
    }
}

impl Module for Linear {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w, &mut self.b]
    }
}

/// Multi-layer perceptron with ReLU between layers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Linear>,
}

impl Mlp {
    /// Builds an MLP through the given layer widths, e.g. `[32, 128, 1]`.
    ///
    /// # Panics
    /// Panics if fewer than two widths are given.
    pub fn new(widths: &[usize], rng: &mut impl Rng) -> Mlp {
        assert!(widths.len() >= 2, "an MLP needs at least input and output widths");
        let layers =
            widths.windows(2).map(|w| Linear::new(w[0], w[1], rng)).collect();
        Mlp { layers }
    }

    /// Applies the MLP (ReLU after every layer but the last); hidden layers
    /// run as fused `linear_relu` tape nodes.
    pub fn forward(&self, g: &mut Graph, x: NodeId) -> NodeId {
        let (h, last) = self.hidden(g, x);
        last.forward(g, h)
    }

    /// Applies the MLP to `[B·group, in]` rows and sums every `group`
    /// consecutive outputs: `[B, out]`, bit-identical to
    /// [`Mlp::forward`] followed by [`Graph::sum_groups`]. The last layer
    /// and the sum are one fused tape node whose backward computes the
    /// input gradient once per group instead of once per row — the
    /// per-statement encoder of PaCM and TensetMLP, summed per program.
    ///
    /// # Panics
    /// Panics if the row count is not a multiple of `group`.
    pub fn forward_sum_groups(&self, g: &mut Graph, x: NodeId, group: usize) -> NodeId {
        let (h, last) = self.hidden(g, x);
        let w = last.w.bind(g);
        let b = last.b.bind(g);
        g.linear_sum_groups(h, w, b, group)
    }

    /// Runs every layer but the last (each a fused `linear_relu` node) and
    /// returns their output with the last layer.
    fn hidden(&self, g: &mut Graph, x: NodeId) -> (NodeId, &Linear) {
        let (last, hidden) = self.layers.split_last().expect("an MLP has at least one layer");
        (hidden.iter().fold(x, |h, layer| layer.forward_relu(g, h)), last)
    }
}

impl Module for Mlp {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers.iter_mut().flat_map(|l| l.params_mut()).collect()
    }
}

/// Single-head scaled-dot-product self-attention over fixed-length groups.
///
/// Input is `[B·S, d_model]` with `S = group`; attention runs within each
/// group independently (each group is one program's data-flow sequence).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SelfAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    proj: Linear,
    head_dim: usize,
    group: usize,
}

impl SelfAttention {
    /// Builds an attention block with the given model width, head width and
    /// group (sequence) length.
    pub fn new(d_model: usize, head_dim: usize, group: usize, rng: &mut impl Rng) -> Self {
        SelfAttention {
            wq: Linear::new(d_model, head_dim, rng),
            wk: Linear::new(d_model, head_dim, rng),
            wv: Linear::new(d_model, head_dim, rng),
            proj: Linear::new(head_dim, d_model, rng),
            head_dim,
            group,
        }
    }

    /// Applies attention with an optional additive logit mask and a
    /// residual connection.
    ///
    /// `col_mask` is `[B·S, S]`: `0.0` for real key positions and a large
    /// negative value for padding positions, added to the scaled scores so
    /// padded sequence slots receive ~zero attention weight.
    pub fn forward_masked(
        &self,
        g: &mut Graph,
        x: NodeId,
        col_mask: Option<NodeId>,
    ) -> NodeId {
        let q = self.wq.forward(g, x);
        let k = self.wk.forward(g, x);
        let v = self.wv.forward(g, x);
        let scores = g.group_matmul_nt(q, k, self.group);
        let mut scaled = g.scale(scores, 1.0 / (self.head_dim as f32).sqrt());
        if let Some(mask) = col_mask {
            scaled = g.add(scaled, mask);
        }
        let attn = g.softmax_rows(scaled);
        let ctx = g.group_matmul(attn, v, self.group);
        let out = self.proj.forward(g, ctx);
        g.add(x, out)
    }
}

impl Module for SelfAttention {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut v = self.wq.params_mut();
        v.extend(self.wk.params_mut());
        v.extend(self.wv.params_mut());
        v.extend(self.proj.params_mut());
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(5)
    }

    #[test]
    fn linear_forward_shape_and_grad() {
        let mut r = rng();
        let mut lin = Linear::new(4, 3, &mut r);
        let mut g = Graph::new();
        let x = g.input(Tensor::full(2, 4, 1.0));
        let y = lin.forward(&mut g, x);
        assert_eq!(g.value(y).shape(), (2, 3));
        let l = g.mean_all(y);
        g.backward(l);
        lin.absorb_grads(&g);
        let grads: f32 = lin.params_mut().iter().map(|p| p.grad.norm()).sum();
        assert!(grads > 0.0, "gradients must flow into the layer");
    }

    #[test]
    fn mlp_trains_toward_regression_target() {
        // Fit y = 2x on 1-D input with a tiny MLP and plain gradient steps.
        let mut r = rng();
        let mut mlp = Mlp::new(&[1, 8, 1], &mut r);
        let xs = Tensor::from_vec(8, 1, (0..8).map(|i| i as f32 / 8.0).collect());
        let ys = Tensor::from_vec(8, 1, (0..8).map(|i| 2.0 * i as f32 / 8.0).collect());
        let mut first_loss = None;
        let mut last_loss = 0.0;
        for _ in 0..300 {
            mlp.zero_grad();
            let mut g = Graph::new();
            let x = g.input(xs.clone());
            let pred = mlp.forward(&mut g, x);
            let t = g.input(ys.clone());
            let neg = g.scale(t, -1.0);
            let diff = g.add(pred, neg);
            let sq = g.mul(diff, diff);
            let loss = g.mean_all(sq);
            last_loss = g.value(loss).at(0, 0);
            first_loss.get_or_insert(last_loss);
            g.backward(loss);
            mlp.absorb_grads(&g);
            for p in mlp.params_mut() {
                let grad = p.grad.clone();
                p.value.axpy(-0.1, &grad);
            }
        }
        assert!(
            last_loss < first_loss.unwrap() * 0.05,
            "loss should drop: {} -> {last_loss}",
            first_loss.unwrap()
        );
    }

    #[test]
    fn attention_preserves_shape() {
        // Two groups of 3; gradients must reach every one of the block's
        // eight parameters.
        let mut r = rng();
        let mut attn = SelfAttention::new(6, 4, 3, &mut r);
        let mut g = Graph::new();
        // Non-uniform input so attention logits (and their grads) vary.
        let data: Vec<f32> = (0..36).map(|i| (i as f32 * 0.7).sin()).collect();
        let x = g.input(Tensor::from_vec(6, 6, data));
        let y = attn.forward_masked(&mut g, x, None);
        assert_eq!(g.value(y).shape(), (6, 6));
        let l = g.mean_all(y);
        g.backward(l);
        attn.absorb_grads(&g);
        let live = attn.params_mut().iter().filter(|p| p.grad.norm() > 0.0).count();
        assert_eq!(live, 8, "only {live} params received gradient");
    }

    #[test]
    fn masked_attention_ignores_padded_keys() {
        // One group of 3 rows; mask out key 2 for all queries. The output
        // must equal attention computed over rows 0..2 only.
        let mut r = rng();
        let attn = SelfAttention::new(4, 4, 3, &mut r);
        let x = Tensor::from_vec(
            3,
            4,
            vec![0.3, -0.1, 0.5, 0.2, -0.4, 0.2, 0.1, 0.6, 9.0, 9.0, 9.0, 9.0],
        );
        let mut mask = Tensor::zeros(3, 3);
        for q in 0..3 {
            *mask.at_mut(q, 2) = -1e9;
        }
        let mut g = Graph::new();
        let xi = g.input(x.clone());
        let mi = g.input(mask);
        let masked = attn.forward_masked(&mut g, xi, Some(mi));
        // The huge padded row must not leak into rows 0 and 1.
        let out = g.value(masked);
        for rix in 0..2 {
            for c in 0..4 {
                assert!(
                    out.at(rix, c).abs() < 5.0,
                    "padded key leaked: row {rix} col {c} = {}",
                    out.at(rix, c)
                );
            }
        }
    }

    #[test]
    fn momentum_update_blends_weights() {
        let mut r = rng();
        let mut a = Linear::new(2, 2, &mut r);
        let mut b = Linear::new(2, 2, &mut r);
        let before = a.params_mut()[0].value.clone();
        let target = b.params_mut()[0].value.clone();
        a.momentum_update_from(&mut b, 0.9);
        let after = &a.params_mut()[0].value;
        for i in 0..before.len() {
            let expect = 0.9 * before.as_slice()[i] + 0.1 * target.as_slice()[i];
            assert!((after.as_slice()[i] - expect).abs() < 1e-6);
        }
    }

    #[test]
    fn copy_weights_makes_models_identical() {
        let mut r = rng();
        let mut a = Mlp::new(&[3, 4, 1], &mut r);
        let mut b = Mlp::new(&[3, 4, 1], &mut r);
        b.copy_weights_from(&mut a);
        let x = Tensor::full(1, 3, 0.3);
        let run = |m: &Mlp| {
            let mut g = Graph::new();
            let xi = g.input(x.clone());
            let y = m.forward(&mut g, xi);
            g.value(y).at(0, 0)
        };
        assert_eq!(run(&a), run(&b));
    }

    #[test]
    #[should_panic(expected = "the tape bound 4 parameters, the module has 2")]
    fn absorb_grads_rejects_a_tape_that_bound_another_param_count() {
        // A forward that binds the layer twice on one tape repeats both of
        // its parameters; pairing leaves with parameters must refuse it.
        let mut r = rng();
        let mut lin = Linear::new(2, 2, &mut r);
        let mut g = Graph::new();
        let x = g.input(Tensor::full(1, 2, 1.0));
        let h = lin.forward(&mut g, x);
        let y = lin.forward(&mut g, h);
        let l = g.mean_all(y);
        g.backward(l);
        lin.absorb_grads(&g);
    }

    #[test]
    fn zero_grad_clears() {
        let mut r = rng();
        let mut lin = Linear::new(2, 2, &mut r);
        let mut g = Graph::new();
        let x = g.input(Tensor::full(1, 2, 1.0));
        let y = lin.forward(&mut g, x);
        let l = g.mean_all(y);
        g.backward(l);
        lin.absorb_grads(&g);
        lin.zero_grad();
        assert!(lin.params_mut().iter().all(|p| p.grad.norm() == 0.0));
    }

    #[test]
    fn pooled_mlp_training_steps_keep_the_buffer_pool_flat() {
        // The fused last layer's backward must hand its expanded gradient,
        // its summed-row product and its transpose scratch back.
        let mlp = Mlp::new(&[5, 8, 6], &mut rng());
        let xs = Tensor::from_vec(24, 5, (0..120).map(|i| (i as f32 * 0.37).sin()).collect());
        let mut g = Graph::new();
        let mut pooled = Vec::new();
        for _ in 0..300 {
            g.reset();
            let x = g.input_ref(&xs);
            let y = mlp.forward_sum_groups(&mut g, x, 8);
            let mut seed = g.scratch(3, 6);
            seed.as_mut_slice().iter_mut().enumerate().for_each(|(i, v)| *v = i as f32 - 9.0);
            g.backward_from(y, seed);
            pooled.push(g.workspace().pooled());
        }
        assert!(pooled[2..].iter().all(|&n| n == pooled[2]), "pool grew: {:?}", &pooled[..8]);
    }
}
