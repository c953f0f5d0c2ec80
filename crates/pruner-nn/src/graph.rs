//! Eager tape-based reverse-mode autodiff over 2-D tensors.
//!
//! Operations execute immediately and record themselves on the tape;
//! [`Graph::backward`] (or [`Graph::backward_from`] with a custom seed
//! gradient, as LambdaRank training needs) then fills per-node gradients in
//! one reverse sweep.
//!
//! # Allocation-free steady state
//!
//! Every tensor a tape run creates — node values, gradients, fused-op
//! temporaries — is drawn from the graph's [`Workspace`], a best-fit pool
//! of retired `Vec<f32>` buffers. [`Graph::reset`] moves the whole tape
//! (values and gradients) back into the pool instead of dropping it, so a
//! graph that re-runs the same model shape performs **zero heap
//! allocations after the first warm-up pass**. The tuner's predict stage
//! re-runs the cost model on thousands of 256-candidate chunks per round;
//! each worker keeps one graph and `reset`s it between chunks.
//!
//! # Determinism
//!
//! All matrix products route through the register-blocked kernels in
//! [`crate::gemm`], which keep the per-element ascending-`k` accumulation
//! order of the naive reference at any block shape and any thread count —
//! see the module docs there for the bit-exactness argument. A graph
//! built with [`Graph::with_threads`] bands large training GEMMs across
//! scoped threads without changing a single bit of any result.
//!
//! # Fused layer ops
//!
//! Three ops record a whole layer as one tape node, each bit-identical to
//! the unfused chain that the unit tests keep as its oracle:
//! [`Graph::linear`] (`x·W + b`), [`Graph::linear_relu`]
//! (`relu(x·W + b)`), and the crate-private `linear_sum_groups`
//! (`x·W + b`, then every `group` rows summed, as [`Graph::sum_groups`]
//! does). The last is the final statement layer of PaCM and TensetMLP,
//! reached through `Mlp::forward_sum_groups`: a group sum hands all of its
//! rows one and the same gradient, so the op multiplies that gradient by
//! `Wᵀ` once per group and copies the product, where the chain multiplies
//! every row. `sum_groups` itself stays for pooling after a per-row mask,
//! whose rows' gradients differ.

use crate::gemm;
use crate::tensor::Tensor;

/// Handle to a node on the tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(usize);

/// Maximum inputs of any op (the fused linear ops take three).
const MAX_INPUTS: usize = 3;

#[derive(Debug, Clone, Copy)]
enum Op {
    Input,
    /// A leaf that takes no gradient: data, masks, targets.
    Constant,
    MatMul,
    /// Fused `x·W + bias` (one tape node instead of two).
    Linear,
    /// Fused `relu(x·W + bias)` (one tape node instead of three).
    LinearRelu,
    /// Fused `x·W + bias` with every `group` rows summed (one tape node
    /// instead of two, and an input-gradient product `1/group` the size).
    LinearSumGroups(usize),
    /// Unfused row-bias add: the reference the fused linear ops are
    /// tested against.
    #[cfg(test)]
    AddRowBias,
    Add,
    Mul,
    Scale(f32),
    /// Unfused activation: the reference `LinearRelu` is tested against.
    #[cfg(test)]
    Relu,
    SoftmaxRows,
    SumGroups(usize),
    MeanAll,
    ConcatCols,
    GroupMatMulNT(usize),
    GroupMatMul(usize),
}

struct Node {
    op: Op,
    inputs: [NodeId; MAX_INPUTS],
    value: Tensor,
}

/// Best-fit pool of retired tensor buffers.
///
/// [`Graph::reset`] feeds the tape's buffers back here; every op acquires
/// its output from the pool. Buffers come back *dirty* — each op fully
/// overwrites (or explicitly zero-fills) its output, which the bit-exact
/// `matmul_into`-with-dirty-buffer proptest pins down. Best-fit matching
/// (smallest capacity that fits) guarantees that a steady-state workload —
/// identical shape sequence every run — reuses each buffer for the same
/// role and never allocates.
#[derive(Default)]
pub struct Workspace {
    free: Vec<Vec<f32>>,
}

impl Workspace {
    /// Acquires a buffer of exactly `len` elements with unspecified
    /// contents.
    fn take(&mut self, len: usize) -> Vec<f32> {
        let mut best: Option<(usize, usize)> = None;
        for (i, b) in self.free.iter().enumerate() {
            let cap = b.capacity();
            if cap >= len && best.is_none_or(|(_, bc)| cap < bc) {
                best = Some((i, cap));
                if cap == len {
                    break;
                }
            }
        }
        match best {
            Some((i, _)) => {
                let mut b = self.free.swap_remove(i);
                if b.len() > len {
                    b.truncate(len);
                } else {
                    b.resize(len, 0.0);
                }
                b
            }
            None => vec![0.0; len],
        }
    }

    /// Returns a retired buffer to the pool.
    fn put(&mut self, b: Vec<f32>) {
        if b.capacity() > 0 {
            self.free.push(b);
        }
    }

    /// Number of pooled buffers (diagnostics).
    pub fn pooled(&self) -> usize {
        self.free.len()
    }
}

/// Pool-allocates an uninitialized-content `rows × cols` tensor.
fn alloc(ws: &mut Workspace, rows: usize, cols: usize) -> Tensor {
    Tensor::from_vec(rows, cols, ws.take(rows * cols))
}

/// Pool-allocates a copy of `src`.
fn copy_of(ws: &mut Workspace, src: &Tensor) -> Tensor {
    let mut t = alloc(ws, src.rows(), src.cols());
    t.as_mut_slice().copy_from_slice(src.as_slice());
    t
}

/// Sums every consecutive `group` rows of `x`, in row order, into a pooled
/// `[rows / group, cols]` tensor.
///
/// # Panics
/// Panics if the row count is not a multiple of `group`.
fn group_sums(ws: &mut Workspace, x: &Tensor, group: usize) -> Tensor {
    let (rows, cols) = x.shape();
    assert!(group > 0 && rows.is_multiple_of(group), "rows must divide into groups");
    let b = rows / group;
    let mut out = alloc(ws, b, cols);
    out.as_mut_slice().fill(0.0);
    for g in 0..b {
        for s in 0..group {
            for (o, &v) in out.row_mut(g).iter_mut().zip(x.row(g * group + s)) {
                *o += v;
            }
        }
    }
    out
}

/// Copies row `r / group` of `g` to row `r` of a pooled `[rows, cols]`
/// tensor: the gradient a group sum hands each of its summands.
fn expand_groups(ws: &mut Workspace, g: &Tensor, rows: usize, group: usize) -> Tensor {
    let mut out = alloc(ws, rows, g.cols());
    for r in 0..rows {
        out.row_mut(r).copy_from_slice(g.row(r / group));
    }
    out
}

/// The autodiff tape.
///
/// A graph is built per forward pass (the usual define-by-run pattern).
/// A layer binds each of its parameters as a leaf that the tape records in
/// bind order, so `Module::absorb_grads` can pair the recorded leaves with
/// the module's parameters after the backward sweep; other leaves enter
/// through [`Graph::input_ref`], and data enters through
/// [`Graph::constant`] and takes no gradient. Call [`Graph::reset`] between
/// passes to recycle every buffer the previous pass used.
pub struct Graph {
    nodes: Vec<Node>,
    grads: Vec<Option<Tensor>>,
    /// The parameter leaves bound since the last reset, in bind order.
    params: Vec<NodeId>,
    ws: Workspace,
    threads: usize,
}

impl Default for Graph {
    fn default() -> Graph {
        Graph {
            nodes: Vec::new(),
            grads: Vec::new(),
            params: Vec::new(),
            ws: Workspace::default(),
            threads: 1,
        }
    }
}

impl Graph {
    /// Creates an empty single-threaded tape.
    pub fn new() -> Graph {
        Graph::default()
    }

    /// Creates an empty tape whose large matrix products band across up to
    /// `threads` scoped workers (bit-identical to serial at any count).
    pub fn with_threads(threads: usize) -> Graph {
        Graph { threads: threads.max(1), ..Graph::default() }
    }

    /// Current GEMM worker budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Clears the tape, recycling every value and gradient buffer into the
    /// workspace pool. After one warm-up pass, re-running the same op
    /// sequence performs no heap allocations.
    pub fn reset(&mut self) {
        self.params.clear();
        let ws = &mut self.ws;
        for n in self.nodes.drain(..) {
            ws.put(n.value.into_vec());
        }
        for g in self.grads.drain(..).flatten() {
            ws.put(g.into_vec());
        }
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Read access to the buffer pool (diagnostics).
    pub fn workspace(&self) -> &Workspace {
        &self.ws
    }

    fn push(&mut self, op: Op, inputs: &[NodeId], value: Tensor) -> NodeId {
        debug_assert!(inputs.len() <= MAX_INPUTS);
        let mut arr = [NodeId(0); MAX_INPUTS];
        arr[..inputs.len()].copy_from_slice(inputs);
        self.nodes.push(Node { op, inputs: arr, value });
        NodeId(self.nodes.len() - 1)
    }

    /// The forward value of a node.
    pub fn value(&self, id: NodeId) -> &Tensor {
        &self.nodes[id.0].value
    }

    /// The gradient of the last backward pass at `id`, if it was reached.
    pub fn grad(&self, id: NodeId) -> Option<&Tensor> {
        self.grads.get(id.0).and_then(|g| g.as_ref())
    }

    /// Registers a gradient-taking leaf, taking ownership (unit tests; a
    /// caller outside the crate binds data with [`Graph::constant`] and
    /// other leaves with [`Graph::input_ref`]).
    #[cfg(test)]
    pub(crate) fn input(&mut self, t: Tensor) -> NodeId {
        self.push(Op::Input, &[], t)
    }

    /// Registers a leaf by copying `t` into a pooled buffer — the
    /// allocation-free way for layers to bind parameters every pass.
    pub fn input_ref(&mut self, t: &Tensor) -> NodeId {
        let v = copy_of(&mut self.ws, t);
        self.push(Op::Input, &[], v)
    }

    /// Registers a parameter leaf by copying `t` into a pooled buffer and
    /// records it in bind order (see [`Graph::bound_params`]).
    pub(crate) fn param(&mut self, t: &Tensor) -> NodeId {
        let id = self.input_ref(t);
        self.params.push(id);
        id
    }

    /// The parameter leaves bound since the last reset, in bind order.
    pub(crate) fn bound_params(&self) -> &[NodeId] {
        &self.params
    }

    /// Registers a leaf that takes **no gradient**, taking ownership — the
    /// binding for data (feature batches, masks, targets) as opposed to
    /// parameters. The backward sweep skips every product whose only
    /// consumer would be this leaf (for a first-layer `linear` that is the
    /// whole input-gradient GEMM) and [`Graph::grad`] stays `None` for it;
    /// the gradients of all other nodes are bit-identical to binding the
    /// same tensor with [`Graph::input_ref`].
    pub fn constant(&mut self, t: Tensor) -> NodeId {
        self.push(Op::Constant, &[], t)
    }

    /// Pool-allocates a `rows × cols` tensor with **unspecified contents**
    /// for callers assembling input batches (feature stacking, masks).
    /// Fill it completely, then hand it to [`Graph::constant`]; the buffer
    /// returns to the pool on [`Graph::reset`] like any tape value, so
    /// steady-state batch preparation allocates nothing.
    pub fn scratch(&mut self, rows: usize, cols: usize) -> Tensor {
        alloc(&mut self.ws, rows, cols)
    }

    /// Matrix product `[m,k] × [k,n] → [m,n]`.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (m, k) = self.nodes[a.0].value.shape();
        let (k2, n) = self.nodes[b.0].value.shape();
        assert_eq!(k, k2, "matmul inner dimension mismatch");
        let mut out = alloc(&mut self.ws, m, n);
        gemm::matmul_into(
            self.nodes[a.0].value.as_slice(),
            self.nodes[b.0].value.as_slice(),
            out.as_mut_slice(),
            m,
            k,
            n,
            self.threads,
        );
        self.push(Op::MatMul, &[a, b], out)
    }

    /// Fused `x·W + bias` — one tape node for the matmul and the row-bias
    /// add, with a fused backward. Bit-identical to the unfused
    /// matmul-then-bias chain the unit tests compare it against.
    ///
    /// # Panics
    /// Panics on shape mismatches.
    pub fn linear(&mut self, x: NodeId, w: NodeId, bias: NodeId) -> NodeId {
        let out = self.linear_value(x, w, bias);
        self.push(Op::Linear, &[x, w, bias], out)
    }

    /// Fused `relu(x·W + bias)` — one tape node for matmul, bias and
    /// activation. Bit-identical to the unfused three-op chain.
    ///
    /// # Panics
    /// Panics on shape mismatches.
    pub fn linear_relu(&mut self, x: NodeId, w: NodeId, bias: NodeId) -> NodeId {
        let mut out = self.linear_value(x, w, bias);
        out.as_mut_slice().iter_mut().for_each(|v| *v = v.max(0.0));
        self.push(Op::LinearRelu, &[x, w, bias], out)
    }

    /// Fused `x·W + bias`, then [`Graph::sum_groups`] over every `group`
    /// rows: `[B·S, k] → [B, n]` as one tape node. The `[B·S, n]`
    /// pre-activation is a pooled temporary that goes back to the pool at
    /// once. The backward computes the input gradient on the `B` summed
    /// rows and copies each row to its group's `S` rows. A GEMM computes
    /// each output row from its own input row, in the same order at any
    /// row count, so every bit equals the unfused `linear` + `sum_groups`
    /// chain's.
    ///
    /// # Panics
    /// Panics on shape mismatches or if the row count is not a multiple of
    /// `group`.
    pub(crate) fn linear_sum_groups(
        &mut self,
        x: NodeId,
        w: NodeId,
        bias: NodeId,
        group: usize,
    ) -> NodeId {
        let pre = self.linear_value(x, w, bias);
        let out = group_sums(&mut self.ws, &pre, group);
        self.ws.put(pre.into_vec());
        self.push(Op::LinearSumGroups(group), &[x, w, bias], out)
    }

    /// Shared forward of the fused linear ops: `x·W` then `+= bias` row.
    fn linear_value(&mut self, x: NodeId, w: NodeId, bias: NodeId) -> Tensor {
        let (m, k) = self.nodes[x.0].value.shape();
        let (k2, n) = self.nodes[w.0].value.shape();
        assert_eq!(k, k2, "linear inner dimension mismatch");
        let bv_shape = self.nodes[bias.0].value.shape();
        assert_eq!(bv_shape.0, 1, "bias must be a row vector");
        assert_eq!(bv_shape.1, n, "bias width mismatch");
        let mut out = alloc(&mut self.ws, m, n);
        gemm::matmul_into(
            self.nodes[x.0].value.as_slice(),
            self.nodes[w.0].value.as_slice(),
            out.as_mut_slice(),
            m,
            k,
            n,
            self.threads,
        );
        let brow = self.nodes[bias.0].value.row(0);
        for r in 0..m {
            for (o, &b) in out.row_mut(r).iter_mut().zip(brow) {
                *o += b;
            }
        }
        out
    }

    /// Adds a `[1,d]` bias row to every row of a `[n,d]` tensor.
    ///
    /// # Panics
    /// Panics if the bias is not a single row of matching width.
    #[cfg(test)]
    fn add_row_bias(&mut self, x: NodeId, bias: NodeId) -> NodeId {
        let (rows, cols) = self.nodes[x.0].value.shape();
        let bv_shape = self.nodes[bias.0].value.shape();
        assert_eq!(bv_shape.0, 1, "bias must be a row vector");
        assert_eq!(bv_shape.1, cols, "bias width mismatch");
        let mut out = alloc(&mut self.ws, rows, cols);
        let xv = &self.nodes[x.0].value;
        let brow = self.nodes[bias.0].value.row(0);
        for r in 0..rows {
            for ((o, &x_), &b) in out.row_mut(r).iter_mut().zip(xv.row(r)).zip(brow) {
                *o = x_ + b;
            }
        }
        self.push(Op::AddRowBias, &[x, bias], out)
    }

    /// Element-wise sum of same-shape tensors.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let shape = self.nodes[a.0].value.shape();
        assert_eq!(shape, self.nodes[b.0].value.shape(), "add shape mismatch");
        let mut out = alloc(&mut self.ws, shape.0, shape.1);
        let (av, bv) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        for ((o, &x), &y) in out.as_mut_slice().iter_mut().zip(av.as_slice()).zip(bv.as_slice())
        {
            *o = x + y;
        }
        self.push(Op::Add, &[a, b], out)
    }

    /// Element-wise product of same-shape tensors.
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let shape = self.nodes[a.0].value.shape();
        assert_eq!(shape, self.nodes[b.0].value.shape(), "mul shape mismatch");
        let mut out = alloc(&mut self.ws, shape.0, shape.1);
        let (av, bv) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        for ((o, &x), &y) in out.as_mut_slice().iter_mut().zip(av.as_slice()).zip(bv.as_slice())
        {
            *o = x * y;
        }
        self.push(Op::Mul, &[a, b], out)
    }

    /// Multiplies every element by a constant.
    pub(crate) fn scale(&mut self, x: NodeId, c: f32) -> NodeId {
        let mut out = copy_of(&mut self.ws, &self.nodes[x.0].value);
        out.as_mut_slice().iter_mut().for_each(|v| *v *= c);
        self.push(Op::Scale(c), &[x], out)
    }

    /// Unfused rectified linear unit: the reference the fused
    /// [`Graph::linear_relu`] is tested against.
    #[cfg(test)]
    fn relu(&mut self, x: NodeId) -> NodeId {
        let mut out = copy_of(&mut self.ws, &self.nodes[x.0].value);
        out.as_mut_slice().iter_mut().for_each(|v| *v = v.max(0.0));
        self.push(Op::Relu, &[x], out)
    }

    /// Row-wise softmax.
    pub(crate) fn softmax_rows(&mut self, x: NodeId) -> NodeId {
        let mut out = copy_of(&mut self.ws, &self.nodes[x.0].value);
        let cols = out.cols();
        for r in 0..out.rows() {
            let row = &mut out.as_mut_slice()[r * cols..(r + 1) * cols];
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            for v in row.iter_mut() {
                *v /= sum;
            }
        }
        self.push(Op::SoftmaxRows, &[x], out)
    }

    /// Sums every consecutive `group` rows: `[B·S, H] → [B, H]`.
    ///
    /// # Panics
    /// Panics if the row count is not a multiple of `group`.
    pub fn sum_groups(&mut self, x: NodeId, group: usize) -> NodeId {
        let out = group_sums(&mut self.ws, &self.nodes[x.0].value, group);
        self.push(Op::SumGroups(group), &[x], out)
    }

    /// Mean over all elements, producing a `1×1` scalar.
    pub fn mean_all(&mut self, x: NodeId) -> NodeId {
        let m = self.nodes[x.0].value.mean();
        let mut out = alloc(&mut self.ws, 1, 1);
        out.as_mut_slice()[0] = m;
        self.push(Op::MeanAll, &[x], out)
    }

    /// Concatenates along columns: `[n,a] ⧺ [n,b] → [n,a+b]`.
    ///
    /// # Panics
    /// Panics if the row counts differ.
    pub fn concat_cols(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (rows, ac) = self.nodes[a.0].value.shape();
        let (brows, bc) = self.nodes[b.0].value.shape();
        assert_eq!(rows, brows, "concat row mismatch");
        let mut out = alloc(&mut self.ws, rows, ac + bc);
        let (av, bv) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        for r in 0..rows {
            let orow = out.row_mut(r);
            orow[..ac].copy_from_slice(av.row(r));
            orow[ac..].copy_from_slice(bv.row(r));
        }
        self.push(Op::ConcatCols, &[a, b], out)
    }

    /// Per-group `A_g × B_gᵀ`: both inputs are `[B·S, d]`, the result is
    /// `[B·S, S]` of stacked `S×S` score blocks (attention logits).
    ///
    /// # Panics
    /// Panics if shapes disagree or rows are not a multiple of `group`.
    pub(crate) fn group_matmul_nt(&mut self, a: NodeId, b: NodeId, group: usize) -> NodeId {
        let (rows, _d) = self.nodes[a.0].value.shape();
        assert_eq!(
            self.nodes[a.0].value.shape(),
            self.nodes[b.0].value.shape(),
            "group_matmul_nt shape mismatch"
        );
        assert!(group > 0 && rows.is_multiple_of(group), "rows must divide into groups");
        let blocks = rows / group;
        let mut out = alloc(&mut self.ws, rows, group);
        let (av, bv) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        for g in 0..blocks {
            for i in 0..group {
                let arow = av.row(g * group + i);
                let orow = out.row_mut(g * group + i);
                for (j, o) in orow.iter_mut().enumerate() {
                    let brow = bv.row(g * group + j);
                    let mut acc = 0.0f32;
                    for (&x, &y) in arow.iter().zip(brow) {
                        acc += x * y;
                    }
                    *o = acc;
                }
            }
        }
        self.push(Op::GroupMatMulNT(group), &[a, b], out)
    }

    /// Per-group `S_g × V_g`: scores `[B·S, S]` times values `[B·S, d]`,
    /// producing `[B·S, d]` (attention-weighted sums).
    ///
    /// # Panics
    /// Panics if shapes disagree or rows are not a multiple of `group`.
    pub(crate) fn group_matmul(&mut self, s: NodeId, v: NodeId, group: usize) -> NodeId {
        let (rows, width) = self.nodes[s.0].value.shape();
        let (vrows, d) = self.nodes[v.0].value.shape();
        assert_eq!(rows, vrows, "group_matmul row mismatch");
        assert_eq!(width, group, "score width must equal group size");
        assert!(group > 0 && rows.is_multiple_of(group), "rows must divide into groups");
        let blocks = rows / group;
        let mut out = alloc(&mut self.ws, rows, d);
        out.as_mut_slice().fill(0.0);
        let (sv, vv) = (&self.nodes[s.0].value, &self.nodes[v.0].value);
        for g in 0..blocks {
            for i in 0..group {
                let srow = sv.row(g * group + i);
                for (j, &w) in srow.iter().enumerate() {
                    let vrow = vv.row(g * group + j);
                    for (o, &x) in out.row_mut(g * group + i).iter_mut().zip(vrow) {
                        *o += w * x;
                    }
                }
            }
        }
        self.push(Op::GroupMatMul(group), &[s, v], out)
    }

    /// Backpropagates from a scalar node with seed gradient 1.
    ///
    /// # Panics
    /// Panics if `root` is not `1×1`.
    pub fn backward(&mut self, root: NodeId) {
        assert_eq!(self.nodes[root.0].value.shape(), (1, 1), "backward needs a scalar root");
        let mut seed = alloc(&mut self.ws, 1, 1);
        seed.as_mut_slice()[0] = 1.0;
        self.backward_from(root, seed);
    }

    /// Backpropagates from `root` with an explicit seed gradient — the hook
    /// LambdaRank uses to inject λ's at the score node.
    ///
    /// # Panics
    /// Panics if the seed's shape does not match the root value.
    pub fn backward_from(&mut self, root: NodeId, seed: Tensor) {
        assert_eq!(
            self.nodes[root.0].value.shape(),
            seed.shape(),
            "seed gradient shape mismatch"
        );
        {
            let ws = &mut self.ws;
            for g in self.grads.drain(..).flatten() {
                ws.put(g.into_vec());
            }
        }
        self.grads.resize_with(self.nodes.len(), || None);
        self.grads[root.0] = Some(seed);
        for idx in (0..=root.0).rev() {
            let Some(gout) = self.grads[idx].take() else { continue };
            let Graph { ref nodes, ref mut grads, ref mut ws, threads, .. } = *self;
            accumulate_inputs(nodes, grads, ws, threads, idx, &gout);
            self.grads[idx] = Some(gout);
        }
    }
}

/// Adds `g` into the gradient slot for `id`, recycling `g`'s buffer when
/// the slot already holds a tensor or `id` is a no-grad leaf.
fn add_grad(
    nodes: &[Node],
    grads: &mut [Option<Tensor>],
    ws: &mut Workspace,
    id: NodeId,
    g: Tensor,
) {
    if matches!(nodes[id.0].op, Op::Constant) {
        ws.put(g.into_vec());
        return;
    }
    match &mut grads[id.0] {
        Some(existing) => {
            existing.axpy(1.0, &g);
            ws.put(g.into_vec());
        }
        slot @ None => *slot = Some(g),
    }
}

/// Column sums of `gout` (rows ascending) into a pooled `1×cols` tensor —
/// the bias gradient of the fused linear ops (and of the test-only
/// `AddRowBias` reference).
fn row_bias_grad(ws: &mut Workspace, gout: &Tensor) -> Tensor {
    let mut gb = alloc(ws, 1, gout.cols());
    gb.as_mut_slice().fill(0.0);
    for r in 0..gout.rows() {
        for (o, &v) in gb.row_mut(0).iter_mut().zip(gout.row(r)) {
            *o += v;
        }
    }
    gb
}

/// `gx = gout × Wᵀ` and `gw = xᵀ × gout` for a matmul/linear node —
/// pushed straight into the gradient slots. `gx` is skipped outright when
/// `x` is a no-grad leaf (nothing would ever read it).
fn matmul_grads(
    nodes: &[Node],
    grads: &mut [Option<Tensor>],
    ws: &mut Workspace,
    threads: usize,
    x: NodeId,
    w: NodeId,
    gout: &Tensor,
) {
    if !matches!(nodes[x.0].op, Op::Constant) {
        let gx = input_grad(ws, threads, gout, &nodes[w.0].value);
        add_grad(nodes, grads, ws, x, gx);
    }
    weight_grad(nodes, grads, ws, threads, x, w, gout);
}

/// `gout × Wᵀ` into a pooled tensor (the input gradient of `x·W`).
fn input_grad(ws: &mut Workspace, threads: usize, gout: &Tensor, wv: &Tensor) -> Tensor {
    let mut gx = alloc(ws, gout.rows(), wv.rows());
    let mut wt = ws.take(wv.len());
    gemm::matmul_nt_scratch_into(
        gout.as_slice(),
        wv.as_slice(),
        &mut wt,
        gx.as_mut_slice(),
        gout.rows(),
        gout.cols(),
        wv.rows(),
        threads,
    );
    ws.put(wt);
    gx
}

/// `gw = xᵀ × gout`, pushed into `w`'s gradient slot.
fn weight_grad(
    nodes: &[Node],
    grads: &mut [Option<Tensor>],
    ws: &mut Workspace,
    threads: usize,
    x: NodeId,
    w: NodeId,
    gout: &Tensor,
) {
    let xv = &nodes[x.0].value;
    let mut gw = alloc(ws, xv.cols(), gout.cols());
    gemm::matmul_tn_into(
        xv.as_slice(),
        gout.as_slice(),
        gw.as_mut_slice(),
        xv.rows(),
        xv.cols(),
        gout.cols(),
        threads,
    );
    add_grad(nodes, grads, ws, w, gw);
}

fn accumulate_inputs(
    nodes: &[Node],
    grads: &mut [Option<Tensor>],
    ws: &mut Workspace,
    threads: usize,
    idx: usize,
    gout: &Tensor,
) {
    let op = nodes[idx].op;
    let inputs = nodes[idx].inputs;
    match op {
        Op::Input | Op::Constant => {}
        Op::MatMul => {
            matmul_grads(nodes, grads, ws, threads, inputs[0], inputs[1], gout);
        }
        Op::Linear => {
            // y = x·W + b: bias gets column sums, x/W the matmul grads —
            // the same kernels and order as the unfused two-node chain.
            let gb = row_bias_grad(ws, gout);
            matmul_grads(nodes, grads, ws, threads, inputs[0], inputs[1], gout);
            add_grad(nodes, grads, ws, inputs[2], gb);
        }
        Op::LinearRelu => {
            // y = relu(x·W + b): mask the upstream gradient by the stored
            // activation first, then proceed exactly as `Linear`.
            let yv = &nodes[idx].value;
            let mut gm = alloc(ws, gout.rows(), gout.cols());
            for ((o, &g), &y) in
                gm.as_mut_slice().iter_mut().zip(gout.as_slice()).zip(yv.as_slice())
            {
                *o = if y <= 0.0 { 0.0 } else { g };
            }
            let gb = row_bias_grad(ws, &gm);
            matmul_grads(nodes, grads, ws, threads, inputs[0], inputs[1], &gm);
            add_grad(nodes, grads, ws, inputs[2], gb);
            ws.put(gm.into_vec());
        }
        Op::LinearSumGroups(group) => {
            // y = sum_groups(x·W + b): the pre-activation's gradient is
            // `gout` row `r / group` at row `r`. Bias and W take it
            // expanded, as `Linear` would; x takes `gout·Wᵀ` on the summed
            // rows, expanded after the product instead of before it.
            let (x, w) = (inputs[0], inputs[1]);
            let rows = nodes[x.0].value.rows();
            let gexp = expand_groups(ws, gout, rows, group);
            let gb = row_bias_grad(ws, &gexp);
            if !matches!(nodes[x.0].op, Op::Constant) {
                let per_group = input_grad(ws, threads, gout, &nodes[w.0].value);
                let gx = expand_groups(ws, &per_group, rows, group);
                ws.put(per_group.into_vec());
                add_grad(nodes, grads, ws, x, gx);
            }
            weight_grad(nodes, grads, ws, threads, x, w, &gexp);
            add_grad(nodes, grads, ws, inputs[2], gb);
            ws.put(gexp.into_vec());
        }
        #[cfg(test)]
        Op::AddRowBias => {
            let gb = row_bias_grad(ws, gout);
            let gx = copy_of(ws, gout);
            add_grad(nodes, grads, ws, inputs[0], gx);
            add_grad(nodes, grads, ws, inputs[1], gb);
        }
        Op::Add => {
            let ga = copy_of(ws, gout);
            add_grad(nodes, grads, ws, inputs[0], ga);
            let gb = copy_of(ws, gout);
            add_grad(nodes, grads, ws, inputs[1], gb);
        }
        Op::Mul => {
            let (a, b) = (inputs[0], inputs[1]);
            let mut ga = alloc(ws, gout.rows(), gout.cols());
            for ((o, &g), &v) in
                ga.as_mut_slice().iter_mut().zip(gout.as_slice()).zip(nodes[b.0].value.as_slice())
            {
                *o = g * v;
            }
            let mut gb = alloc(ws, gout.rows(), gout.cols());
            for ((o, &g), &v) in
                gb.as_mut_slice().iter_mut().zip(gout.as_slice()).zip(nodes[a.0].value.as_slice())
            {
                *o = g * v;
            }
            add_grad(nodes, grads, ws, a, ga);
            add_grad(nodes, grads, ws, b, gb);
        }
        Op::Scale(c) => {
            let mut g = copy_of(ws, gout);
            g.as_mut_slice().iter_mut().for_each(|v| *v *= c);
            add_grad(nodes, grads, ws, inputs[0], g);
        }
        #[cfg(test)]
        Op::Relu => {
            let mut g = copy_of(ws, gout);
            for (gv, &y) in g.as_mut_slice().iter_mut().zip(nodes[idx].value.as_slice()) {
                if y <= 0.0 {
                    *gv = 0.0;
                }
            }
            add_grad(nodes, grads, ws, inputs[0], g);
        }
        Op::SoftmaxRows => {
            let yv = &nodes[idx].value;
            let cols = yv.cols();
            let mut g = alloc(ws, yv.rows(), cols);
            for r in 0..yv.rows() {
                let yrow = yv.row(r);
                let grow = gout.row(r);
                let mut dot = 0.0f32;
                for (&gv, &y) in grow.iter().zip(yrow) {
                    dot += gv * y;
                }
                for ((o, &gv), &y) in g.row_mut(r).iter_mut().zip(grow).zip(yrow) {
                    *o = y * (gv - dot);
                }
            }
            add_grad(nodes, grads, ws, inputs[0], g);
        }
        Op::SumGroups(group) => {
            let g = expand_groups(ws, gout, nodes[inputs[0].0].value.rows(), group);
            add_grad(nodes, grads, ws, inputs[0], g);
        }
        Op::MeanAll => {
            let xv = &nodes[inputs[0].0].value;
            let scale = gout.at(0, 0) / xv.len() as f32;
            let mut g = alloc(ws, xv.rows(), xv.cols());
            g.as_mut_slice().fill(scale);
            add_grad(nodes, grads, ws, inputs[0], g);
        }
        Op::ConcatCols => {
            let (a, b) = (inputs[0], inputs[1]);
            let ac = nodes[a.0].value.cols();
            let bc = nodes[b.0].value.cols();
            let rows = gout.rows();
            let mut ga = alloc(ws, rows, ac);
            let mut gb = alloc(ws, rows, bc);
            for r in 0..rows {
                let grow = gout.row(r);
                ga.row_mut(r).copy_from_slice(&grow[..ac]);
                gb.row_mut(r).copy_from_slice(&grow[ac..]);
            }
            add_grad(nodes, grads, ws, a, ga);
            add_grad(nodes, grads, ws, b, gb);
        }
        Op::GroupMatMulNT(group) => {
            // C_g = A_g B_gᵀ ⇒ dA_g = dC_g B_g ; dB_g = dC_gᵀ A_g.
            let (a, b) = (inputs[0], inputs[1]);
            let av = &nodes[a.0].value;
            let bv = &nodes[b.0].value;
            let (rows, d) = av.shape();
            let blocks = rows / group;
            let mut ga = alloc(ws, rows, d);
            ga.as_mut_slice().fill(0.0);
            let mut gb = alloc(ws, rows, d);
            gb.as_mut_slice().fill(0.0);
            for g in 0..blocks {
                for i in 0..group {
                    let grow = gout.row(g * group + i);
                    for (j, &gc) in grow.iter().enumerate() {
                        for (o, &v) in
                            ga.row_mut(g * group + i).iter_mut().zip(bv.row(g * group + j))
                        {
                            *o += gc * v;
                        }
                        for (o, &v) in
                            gb.row_mut(g * group + j).iter_mut().zip(av.row(g * group + i))
                        {
                            *o += gc * v;
                        }
                    }
                }
            }
            add_grad(nodes, grads, ws, a, ga);
            add_grad(nodes, grads, ws, b, gb);
        }
        Op::GroupMatMul(group) => {
            // C_g = S_g V_g ⇒ dS_g = dC_g V_gᵀ ; dV_g = S_gᵀ dC_g.
            let (s, v) = (inputs[0], inputs[1]);
            let sv = &nodes[s.0].value;
            let vv = &nodes[v.0].value;
            let rows = sv.rows();
            let blocks = rows / group;
            let d = vv.cols();
            let mut gs = alloc(ws, rows, group);
            let mut gv = alloc(ws, rows, d);
            gv.as_mut_slice().fill(0.0);
            for g in 0..blocks {
                for i in 0..group {
                    let grow = gout.row(g * group + i);
                    for j in 0..group {
                        let vrow = vv.row(g * group + j);
                        let mut acc = 0.0f32;
                        for (&gc, &x) in grow.iter().zip(vrow) {
                            acc += gc * x;
                        }
                        gs.row_mut(g * group + i)[j] = acc;
                        let w = sv.at(g * group + i, j);
                        for (o, &gc) in gv.row_mut(g * group + j).iter_mut().zip(grow) {
                            *o += w * gc;
                        }
                    }
                }
            }
            add_grad(nodes, grads, ws, s, gs);
            add_grad(nodes, grads, ws, v, gv);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Numerical gradient of `f` at `x` via central differences.
    fn numeric_grad(mut f: impl FnMut(&Tensor) -> f32, x: &Tensor) -> Tensor {
        let eps = 1e-3;
        let mut g = Tensor::zeros(x.rows(), x.cols());
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            g.as_mut_slice()[i] = (f(&xp) - f(&xm)) / (2.0 * eps);
        }
        g
    }

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!(
                (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
                "grad mismatch: {x} vs {y}"
            );
        }
    }

    fn seeded(rows: usize, cols: usize, seed: u64) -> Tensor {
        // Simple deterministic fill in (-1, 1).
        let data = (0..rows * cols)
            .map(|i| {
                let v = ((i as u64 + 1).wrapping_mul(seed.wrapping_mul(2654435761) | 1)) % 1000;
                v as f32 / 500.0 - 1.0
            })
            .collect();
        Tensor::from_vec(rows, cols, data)
    }

    #[test]
    fn gradcheck_matmul_chain() {
        let x0 = seeded(3, 4, 7);
        let w0 = seeded(4, 2, 11);
        let f = |x: &Tensor| {
            let mut g = Graph::new();
            let xi = g.input(x.clone());
            let wi = g.input(w0.clone());
            let y = g.matmul(xi, wi);
            let y = g.relu(y);
            let l = g.mean_all(y);
            g.value(l).at(0, 0)
        };
        let mut g = Graph::new();
        let xi = g.input(x0.clone());
        let wi = g.input(w0.clone());
        let y = g.matmul(xi, wi);
        let y = g.relu(y);
        let l = g.mean_all(y);
        g.backward(l);
        assert_close(g.grad(xi).unwrap(), &numeric_grad(f, &x0), 2e-2);
    }

    #[test]
    fn gradcheck_softmax_rows() {
        let x0 = seeded(2, 5, 13);
        let f = |x: &Tensor| {
            let mut g = Graph::new();
            let xi = g.input(x.clone());
            let s = g.softmax_rows(xi);
            let sq = g.mul(s, s);
            let l = g.mean_all(sq);
            g.value(l).at(0, 0)
        };
        let mut g = Graph::new();
        let xi = g.input(x0.clone());
        let s = g.softmax_rows(xi);
        let sq = g.mul(s, s);
        let l = g.mean_all(sq);
        g.backward(l);
        assert_close(g.grad(xi).unwrap(), &numeric_grad(f, &x0), 2e-2);
    }

    #[test]
    fn gradcheck_group_attention() {
        // Two groups of 3 rows, head dim 4: full attention block.
        let x0 = seeded(6, 4, 17);
        let run = |x: &Tensor, g: &mut Graph| {
            let xi = g.input(x.clone());
            let scores = g.group_matmul_nt(xi, xi, 3);
            let scaled = g.scale(scores, 0.5);
            let attn = g.softmax_rows(scaled);
            let out = g.group_matmul(attn, xi, 3);
            let l = g.mean_all(out);
            (xi, l)
        };
        let f = |x: &Tensor| {
            let mut g = Graph::new();
            let (_, l) = run(x, &mut g);
            g.value(l).at(0, 0)
        };
        let mut g = Graph::new();
        let (xi, l) = run(&x0, &mut g);
        g.backward(l);
        assert_close(g.grad(xi).unwrap(), &numeric_grad(f, &x0), 3e-2);
    }

    #[test]
    fn gradcheck_bias_concat() {
        let x0 = seeded(4, 3, 23);
        let b0 = seeded(1, 3, 29);
        let run = |x: &Tensor, b: &Tensor, g: &mut Graph| {
            let xi = g.input(x.clone());
            let bi = g.input(b.clone());
            let y = g.add_row_bias(xi, bi);
            let s = g.mul(y, y);
            let t = g.scale(y, -0.5);
            let c = g.concat_cols(s, t);
            let l = g.mean_all(c);
            (xi, bi, l)
        };
        let loss = |x: &Tensor, b: &Tensor| {
            let mut g = Graph::new();
            let (_, _, l) = run(x, b, &mut g);
            g.value(l).at(0, 0)
        };
        let mut g = Graph::new();
        let (xi, bi, l) = run(&x0, &b0, &mut g);
        g.backward(l);
        assert_close(g.grad(xi).unwrap(), &numeric_grad(|x| loss(x, &b0), &x0), 2e-2);
        assert_close(g.grad(bi).unwrap(), &numeric_grad(|b| loss(&x0, b), &b0), 2e-2);
    }

    #[test]
    fn gradcheck_sum_groups() {
        let x0 = seeded(6, 2, 31);
        let f = |x: &Tensor| {
            let mut g = Graph::new();
            let xi = g.input(x.clone());
            let s = g.sum_groups(xi, 3);
            let sq = g.mul(s, s);
            let l = g.mean_all(sq);
            g.value(l).at(0, 0)
        };
        let mut g = Graph::new();
        let xi = g.input(x0.clone());
        let s = g.sum_groups(xi, 3);
        let sq = g.mul(s, s);
        let l = g.mean_all(sq);
        g.backward(l);
        assert_close(g.grad(xi).unwrap(), &numeric_grad(f, &x0), 2e-2);
    }

    #[test]
    fn backward_from_custom_seed() {
        // d(2x)/dx with seed λ gives 2λ.
        let x0 = seeded(3, 1, 37);
        let mut g = Graph::new();
        let xi = g.input(x0);
        let y = g.scale(xi, 2.0);
        let seed = Tensor::from_vec(3, 1, vec![1.0, -2.0, 0.5]);
        g.backward_from(y, seed);
        assert_eq!(g.grad(xi).unwrap().as_slice(), &[2.0, -4.0, 1.0]);
    }

    #[test]
    fn diamond_reuse_accumulates() {
        // y = x + x ⇒ dy/dx = 2.
        let mut g = Graph::new();
        let xi = g.input(Tensor::scalar(3.0));
        let y = g.add(xi, xi);
        g.backward(y);
        assert_eq!(g.grad(xi).unwrap().at(0, 0), 2.0);
    }

    #[test]
    fn values_are_eager() {
        let mut g = Graph::new();
        let a = g.input(Tensor::from_vec(1, 2, vec![1.0, 2.0]));
        let b = g.input(Tensor::from_vec(2, 1, vec![3.0, 4.0]));
        let c = g.matmul(a, b);
        assert_eq!(g.value(c).at(0, 0), 11.0);
    }

    /// Builds the unfused matmul→bias→relu chain and the fused
    /// `linear_relu` node over the same data, returning (value, gx, gw, gb)
    /// for each.
    fn fused_vs_unfused(
        fused: bool,
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>) {
        let x0 = seeded(5, 4, 51);
        let w0 = seeded(4, 3, 53);
        let b0 = seeded(1, 3, 59);
        let mut g = Graph::new();
        let x = g.input(x0);
        let w = g.input(w0);
        let b = g.input(b0);
        let y = if fused {
            g.linear_relu(x, w, b)
        } else {
            let t = g.matmul(x, w);
            let t = g.add_row_bias(t, b);
            g.relu(t)
        };
        let l = g.mean_all(y);
        g.backward(l);
        (
            g.value(y).as_slice().to_vec(),
            g.grad(x).unwrap().as_slice().to_vec(),
            g.grad(w).unwrap().as_slice().to_vec(),
            g.grad(b).unwrap().as_slice().to_vec(),
        )
    }

    #[test]
    fn fused_linear_relu_is_bit_identical_to_chain() {
        let (v1, gx1, gw1, gb1) = fused_vs_unfused(true);
        let (v2, gx2, gw2, gb2) = fused_vs_unfused(false);
        assert_eq!(v1, v2, "fused forward diverged");
        assert_eq!(gx1, gx2, "fused x-gradient diverged");
        assert_eq!(gw1, gw2, "fused W-gradient diverged");
        assert_eq!(gb1, gb2, "fused bias-gradient diverged");
    }

    #[test]
    fn fused_linear_is_bit_identical_to_chain() {
        let x0 = seeded(6, 5, 61);
        let w0 = seeded(5, 2, 67);
        let b0 = seeded(1, 2, 71);
        let run = |fused: bool| {
            let mut g = Graph::new();
            let x = g.input(x0.clone());
            let w = g.input(w0.clone());
            let b = g.input(b0.clone());
            let y = if fused {
                g.linear(x, w, b)
            } else {
                let t = g.matmul(x, w);
                g.add_row_bias(t, b)
            };
            let l = g.mean_all(y);
            g.backward(l);
            (
                g.value(y).as_slice().to_vec(),
                g.grad(x).unwrap().as_slice().to_vec(),
                g.grad(w).unwrap().as_slice().to_vec(),
                g.grad(b).unwrap().as_slice().to_vec(),
            )
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn constant_leaf_leaves_parameter_gradients_bit_identical() {
        // Data bound as a no-grad leaf (both straight into a linear layer
        // and as an elementwise mask) must change nothing but the data
        // leaves' own gradient slots.
        let x0 = seeded(37, 9, 103);
        let mask0 = seeded(37, 18, 107);
        let (w1, b1) = (seeded(9, 18, 109), seeded(1, 18, 113));
        let (w2, b2) = (seeded(18, 1, 127), seeded(1, 1, 131));
        let run = |no_grad: bool| {
            let mut g = Graph::new();
            let leaf = |g: &mut Graph, t: &Tensor| {
                if no_grad {
                    g.constant(t.clone())
                } else {
                    g.input(t.clone())
                }
            };
            let x = leaf(&mut g, &x0);
            let mask = leaf(&mut g, &mask0);
            let params: Vec<NodeId> =
                [&w1, &b1, &w2, &b2].into_iter().map(|t| g.input_ref(t)).collect();
            let h = g.linear_relu(x, params[0], params[1]);
            let h = g.mul(h, mask);
            let y = g.linear(h, params[2], params[3]);
            let l = g.mean_all(y);
            g.backward(l);
            let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let grads: Vec<Vec<u32>> =
                params.iter().map(|&p| bits(g.grad(p).expect("parameter gradient"))).collect();
            (grads, g.grad(x).is_some(), g.grad(mask).is_some())
        };
        let (with_input, x_grad, mask_grad) = run(false);
        assert!(x_grad && mask_grad, "ordinary leaves receive gradients");
        let (with_constant, x_grad, mask_grad) = run(true);
        assert!(!x_grad && !mask_grad, "no-grad leaves must stay without a gradient");
        assert_eq!(with_constant, with_input);
    }

    #[test]
    fn reset_reuses_buffers_with_identical_results() {
        let x0 = seeded(4, 6, 73);
        let w0 = seeded(6, 3, 79);
        let b0 = seeded(1, 3, 83);
        let mut g = Graph::new();
        let mut outs = Vec::new();
        for _ in 0..3 {
            g.reset();
            let x = g.input_ref(&x0);
            let w = g.input_ref(&w0);
            let b = g.input_ref(&b0);
            let y = g.linear_relu(x, w, b);
            let l = g.mean_all(y);
            g.backward(l);
            outs.push((
                g.value(y).as_slice().to_vec(),
                g.grad(w).unwrap().as_slice().to_vec(),
            ));
        }
        assert_eq!(outs[0], outs[1]);
        assert_eq!(outs[1], outs[2]);
        assert!(g.workspace().pooled() > 0, "reset must feed the pool");
    }

    #[test]
    fn threaded_graph_is_bit_identical_to_serial() {
        // Large enough to cross the banding threshold.
        let x0 = seeded(512, 96, 89);
        let w0 = seeded(96, 128, 97);
        let b0 = seeded(1, 128, 101);
        let run = |threads: usize| {
            let mut g = Graph::with_threads(threads);
            let x = g.input_ref(&x0);
            let w = g.input_ref(&w0);
            let b = g.input_ref(&b0);
            let y = g.linear_relu(x, w, b);
            let l = g.mean_all(y);
            g.backward(l);
            (
                g.value(y).as_slice().to_vec(),
                g.grad(x).unwrap().as_slice().to_vec(),
                g.grad(w).unwrap().as_slice().to_vec(),
            )
        };
        let serial = run(1);
        for threads in [2, 4, 7] {
            assert_eq!(run(threads), serial, "{threads}-thread graph diverged");
        }
    }

    /// One pass of `x·W + b`, pooled per `group` rows, under a seeded
    /// upstream gradient: the fused node or the unfused `linear` +
    /// `sum_groups` chain, with `x` bound as an `Input` or a `Constant`.
    /// Returns the bits of the value and of the x, W and bias gradients
    /// (`None` where no gradient was taken).
    #[allow(clippy::type_complexity)]
    fn pooled_linear(
        (x0, w0, b0): (&Tensor, &Tensor, &Tensor),
        group: usize,
        fused: bool,
        constant: bool,
        threads: usize,
    ) -> (Vec<u32>, Option<Vec<u32>>, Vec<u32>, Vec<u32>) {
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut g = Graph::with_threads(threads);
        let x = if constant { g.constant(x0.clone()) } else { g.input_ref(x0) };
        let w = g.input_ref(w0);
        let b = g.input_ref(b0);
        let y = if fused {
            g.linear_sum_groups(x, w, b, group)
        } else {
            let t = g.linear(x, w, b);
            g.sum_groups(t, group)
        };
        let (rows, cols) = g.value(y).shape();
        g.backward_from(y, seeded(rows, cols, 139));
        (
            bits(g.value(y)),
            g.grad(x).map(bits),
            bits(g.grad(w).unwrap()),
            bits(g.grad(b).unwrap()),
        )
    }

    #[test]
    fn fused_linear_sum_groups_is_bit_identical_to_chain() {
        let (x0, w0, b0) = (seeded(24, 5, 131), seeded(5, 7, 137), seeded(1, 7, 149));
        for group in [1, 8] {
            for constant in [false, true] {
                let fused = pooled_linear((&x0, &w0, &b0), group, true, constant, 1);
                let chain = pooled_linear((&x0, &w0, &b0), group, false, constant, 1);
                assert_eq!(fused.1.is_none(), constant, "x takes a gradient iff it is an Input");
                assert_eq!(fused, chain, "group {group}, constant x: {constant}");
            }
        }
    }

    #[test]
    fn threaded_fused_linear_sum_groups_is_bit_identical_to_serial_chain() {
        // 1024 rows in groups of 4: the row-level products (16.8 M
        // multiply-adds) and the 256-row pooled input-gradient product
        // (4.2 M) all cross the banding threshold.
        let (x0, w0, b0) = (seeded(1024, 128, 151), seeded(128, 128, 157), seeded(1, 128, 163));
        let chain = pooled_linear((&x0, &w0, &b0), 4, false, false, 1);
        for threads in [1, 2, 4] {
            let fused = pooled_linear((&x0, &w0, &b0), 4, true, false, threads);
            assert_eq!(fused, chain, "{threads}-thread fused node diverged");
        }
    }
}
