//! Trainable layers.
//!
//! Layers own their [`Param`]s. A forward pass takes `&mut self` so each
//! parameter can remember the tape node it was bound to; after
//! `Graph::backward*`, [`Param::absorb_grad`] (via the [`Module`] helpers)
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
    #[serde(skip)]
    node: Option<NodeId>,
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
            node: None,
        }
    }

    /// Binds the parameter onto the tape and remembers its node.
    pub fn bind(&mut self, g: &mut Graph) -> NodeId {
        let id = g.input_ref(&self.value);
        self.node = Some(id);
        id
    }

    /// Binds the parameter onto the tape for inference only.
    ///
    /// The node is *not* remembered, so no gradient can be absorbed from
    /// this pass — which is exactly what allows forward passes through
    /// `&self` and therefore concurrent prediction from multiple threads.
    pub(crate) fn bind_infer(&self, g: &mut Graph) -> NodeId {
        g.input_ref(&self.value)
    }

    /// Adds the tape gradient (if this param participated) into `grad`.
    pub(crate) fn absorb_grad(&mut self, g: &Graph) {
        if let Some(id) = self.node.take() {
            if let Some(gr) = g.grad(id) {
                self.grad.axpy(1.0, gr);
            }
        }
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

    /// Absorbs tape gradients into every parameter.
    fn absorb_grads(&mut self, g: &Graph) {
        for p in self.params_mut() {
            p.absorb_grad(g);
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
    pub fn forward(&mut self, g: &mut Graph, x: NodeId) -> NodeId {
        let w = self.w.bind(g);
        let b = self.b.bind(g);
        g.linear(x, w, b)
    }

    /// Applies the layer followed by a ReLU as one fused
    /// [`Graph::linear_relu`] node (bit-identical to `forward` + `relu`).
    pub fn forward_relu(&mut self, g: &mut Graph, x: NodeId) -> NodeId {
        let w = self.w.bind(g);
        let b = self.b.bind(g);
        g.linear_relu(x, w, b)
    }

    /// Inference-only forward pass (`&self`; no gradients afterwards).
    pub fn forward_infer(&self, g: &mut Graph, x: NodeId) -> NodeId {
        let w = self.w.bind_infer(g);
        let b = self.b.bind_infer(g);
        g.linear(x, w, b)
    }

    /// Inference-only fused linear + ReLU (`&self`).
    pub fn forward_relu_infer(&self, g: &mut Graph, x: NodeId) -> NodeId {
        let w = self.w.bind_infer(g);
        let b = self.b.bind_infer(g);
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
    pub fn forward(&mut self, g: &mut Graph, x: NodeId) -> NodeId {
        let n = self.layers.len();
        let mut h = x;
        for (i, layer) in self.layers.iter_mut().enumerate() {
            h = if i + 1 < n { layer.forward_relu(g, h) } else { layer.forward(g, h) };
        }
        h
    }

    /// Inference-only forward pass (`&self`; no gradients afterwards).
    pub fn forward_infer(&self, g: &mut Graph, x: NodeId) -> NodeId {
        let n = self.layers.len();
        let mut h = x;
        for (i, layer) in self.layers.iter().enumerate() {
            h = if i + 1 < n {
                layer.forward_relu_infer(g, h)
            } else {
                layer.forward_infer(g, h)
            };
        }
        h
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

    /// Applies attention with a residual connection.
    pub fn forward(&mut self, g: &mut Graph, x: NodeId) -> NodeId {
        self.forward_masked(g, x, None)
    }

    /// Applies attention with an optional additive logit mask.
    ///
    /// `col_mask` is `[B·S, S]`: `0.0` for real key positions and a large
    /// negative value for padding positions, added to the scaled scores so
    /// padded sequence slots receive ~zero attention weight.
    pub fn forward_masked(
        &mut self,
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

    /// Inference-only masked attention (`&self`; no gradients afterwards).
    pub fn forward_masked_infer(
        &self,
        g: &mut Graph,
        x: NodeId,
        col_mask: Option<NodeId>,
    ) -> NodeId {
        let q = self.wq.forward_infer(g, x);
        let k = self.wk.forward_infer(g, x);
        let v = self.wv.forward_infer(g, x);
        let scores = g.group_matmul_nt(q, k, self.group);
        let mut scaled = g.scale(scores, 1.0 / (self.head_dim as f32).sqrt());
        if let Some(mask) = col_mask {
            scaled = g.add(scaled, mask);
        }
        let attn = g.softmax_rows(scaled);
        let ctx = g.group_matmul(attn, v, self.group);
        let out = self.proj.forward_infer(g, ctx);
        g.add(x, out)
    }

    /// Group (sequence) length this block was built for.
    pub fn group(&self) -> usize {
        self.group
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

/// Multi-head self-attention: `h` independent heads whose contexts are
/// concatenated and projected back to the model width, with a residual
/// connection.
///
/// The paper's PaCM uses plain self-attention (one head suffices for the
/// short data-flow sequences); this block is provided for extensions that
/// need more expressive sequence encoders (longer schedules, fused
/// subgraph pipelines).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultiHeadAttention {
    heads: Vec<(Linear, Linear, Linear)>, // (wq, wk, wv) per head
    proj: Linear,
    head_dim: usize,
    group: usize,
}

impl MultiHeadAttention {
    /// Builds `n_heads` heads of width `head_dim` over sequences of length
    /// `group`.
    ///
    /// # Panics
    /// Panics if `n_heads` is zero.
    pub fn new(
        d_model: usize,
        head_dim: usize,
        n_heads: usize,
        group: usize,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(n_heads > 0, "need at least one head");
        let heads = (0..n_heads)
            .map(|_| {
                (
                    Linear::new(d_model, head_dim, rng),
                    Linear::new(d_model, head_dim, rng),
                    Linear::new(d_model, head_dim, rng),
                )
            })
            .collect();
        MultiHeadAttention {
            heads,
            proj: Linear::new(head_dim * n_heads, d_model, rng),
            head_dim,
            group,
        }
    }

    /// Applies all heads with an optional shared logit mask and a residual
    /// connection.
    pub fn forward_masked(
        &mut self,
        g: &mut Graph,
        x: NodeId,
        col_mask: Option<NodeId>,
    ) -> NodeId {
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let group = self.group;
        let mut joined: Option<NodeId> = None;
        for (wq, wk, wv) in &mut self.heads {
            let q = wq.forward(g, x);
            let k = wk.forward(g, x);
            let v = wv.forward(g, x);
            let scores = g.group_matmul_nt(q, k, group);
            let mut scaled = g.scale(scores, scale);
            if let Some(mask) = col_mask {
                scaled = g.add(scaled, mask);
            }
            let attn = g.softmax_rows(scaled);
            let ctx = g.group_matmul(attn, v, group);
            joined = Some(match joined {
                Some(j) => g.concat_cols(j, ctx),
                None => ctx,
            });
        }
        let out = self.proj.forward(g, joined.expect("at least one head"));
        g.add(x, out)
    }

    /// Inference-only masked attention (`&self`; no gradients afterwards).
    pub fn forward_masked_infer(
        &self,
        g: &mut Graph,
        x: NodeId,
        col_mask: Option<NodeId>,
    ) -> NodeId {
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let group = self.group;
        let mut joined: Option<NodeId> = None;
        for (wq, wk, wv) in &self.heads {
            let q = wq.forward_infer(g, x);
            let k = wk.forward_infer(g, x);
            let v = wv.forward_infer(g, x);
            let scores = g.group_matmul_nt(q, k, group);
            let mut scaled = g.scale(scores, scale);
            if let Some(mask) = col_mask {
                scaled = g.add(scaled, mask);
            }
            let attn = g.softmax_rows(scaled);
            let ctx = g.group_matmul(attn, v, group);
            joined = Some(match joined {
                Some(j) => g.concat_cols(j, ctx),
                None => ctx,
            });
        }
        let out = self.proj.forward_infer(g, joined.expect("at least one head"));
        g.add(x, out)
    }
}

impl Module for MultiHeadAttention {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut v = Vec::new();
        for (wq, wk, wv) in &mut self.heads {
            v.extend(wq.params_mut());
            v.extend(wk.params_mut());
            v.extend(wv.params_mut());
        }
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
        let mut r = rng();
        let mut attn = SelfAttention::new(6, 4, 3, &mut r);
        let mut g = Graph::new();
        let x = g.input(Tensor::full(6, 6, 0.5)); // 2 groups of 3
        let y = attn.forward(&mut g, x);
        assert_eq!(g.value(y).shape(), (6, 6));
    }

    #[test]
    fn multi_head_attention_trains() {
        // Two heads over groups of 3; gradients must reach every head.
        let mut r = rng();
        let mut mha = MultiHeadAttention::new(6, 4, 2, 3, &mut r);
        let mut g = Graph::new();
        // Non-uniform input so attention logits (and their grads) vary.
        let data: Vec<f32> = (0..36).map(|i| (i as f32 * 0.7).sin()).collect();
        let x = g.input(Tensor::from_vec(6, 6, data));
        let y = mha.forward_masked(&mut g, x, None);
        assert_eq!(g.value(y).shape(), (6, 6));
        let l = g.mean_all(y);
        g.backward(l);
        mha.absorb_grads(&g);
        let live = mha.params_mut().iter().filter(|p| p.grad.norm() > 0.0).count();
        assert!(live >= 10, "only {live} params received gradient");
    }

    #[test]
    fn masked_attention_ignores_padded_keys() {
        // One group of 3 rows; mask out key 2 for all queries. The output
        // must equal attention computed over rows 0..2 only.
        let mut r = rng();
        let mut attn = SelfAttention::new(4, 4, 3, &mut r);
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
        let run = |m: &mut Mlp| {
            let mut g = Graph::new();
            let xi = g.input(x.clone());
            let y = m.forward(&mut g, xi);
            g.value(y).at(0, 0)
        };
        assert_eq!(run(&mut a), run(&mut b));
    }

    #[test]
    fn infer_forward_matches_training_forward() {
        let mut r = rng();
        let mut mlp = Mlp::new(&[3, 8, 1], &mut r);
        let mut attn = SelfAttention::new(4, 4, 3, &mut r);
        let x = Tensor::from_vec(6, 3, (0..18).map(|i| (i as f32 * 0.3).cos()).collect());
        let train_out = {
            let mut g = Graph::new();
            let xi = g.input(x.clone());
            let y = mlp.forward(&mut g, xi);
            g.value(y).clone()
        };
        let infer_out = {
            let mut g = Graph::new();
            let xi = g.input(x.clone());
            let y = mlp.forward_infer(&mut g, xi);
            g.value(y).clone()
        };
        assert_eq!(train_out.as_slice(), infer_out.as_slice());

        let xa = Tensor::from_vec(6, 4, (0..24).map(|i| (i as f32 * 0.7).sin()).collect());
        let a_train = {
            let mut g = Graph::new();
            let xi = g.input(xa.clone());
            let y = attn.forward_masked(&mut g, xi, None);
            g.value(y).clone()
        };
        let a_infer = {
            let mut g = Graph::new();
            let xi = g.input(xa.clone());
            let y = attn.forward_masked_infer(&mut g, xi, None);
            g.value(y).clone()
        };
        assert_eq!(a_train.as_slice(), a_infer.as_slice());
    }

    #[test]
    fn bind_infer_leaves_no_grad_path() {
        let mut r = rng();
        let lin = Linear::new(2, 2, &mut r);
        let mut g = Graph::new();
        let x = g.input(Tensor::full(1, 2, 1.0));
        let y = lin.forward_infer(&mut g, x);
        let l = g.mean_all(y);
        g.backward(l);
        let mut lin = lin;
        lin.absorb_grads(&g);
        assert!(
            lin.params_mut().iter().all(|p| p.grad.norm() == 0.0),
            "inference binds must not feed gradients back"
        );
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
}
