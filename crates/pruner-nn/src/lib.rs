//! A minimal, deterministic deep-learning framework for the Pruner
//! reproduction.
//!
//! The paper trains its cost models (PaCM, TensetMLP, TLP) in PyTorch; this
//! crate supplies the equivalent machinery in pure Rust:
//!
//! * [`Tensor`] — row-major 2-D `f32` matrices (batches × features).
//! * [`Graph`] — an eager tape with reverse-mode autodiff, including the
//!   per-group sequence operations attention needs (the grouped
//!   products behind [`SelfAttention`], and [`Graph::sum_groups`]).
//! * [`Linear`], [`Mlp`], [`SelfAttention`] — the layers the cost models are
//!   assembled from. Each defines one forward pass through `&self` that
//!   scores and trains alike; [`Module`] pairs the parameters that pass
//!   bound on the tape with their gradients, and provides weight copying
//!   and the momentum blend Momentum Transfer Learning uses.
//! * [`Adam`] — the optimizer.
//! * [`mse_loss`], [`lambdarank_grad`] — the training objectives; LambdaRank
//!   is injected as a custom seed gradient via [`Graph::backward_from`].
//!
//! Everything is seeded and bit-deterministic: matrix products run on the
//! register-blocked kernels in [`gemm`], which preserve the naive
//! per-element accumulation order at any block shape and any thread count,
//! so training runs are exactly reproducible even when
//! [`Graph::with_threads`] bands large GEMMs across workers. Graphs pool
//! their buffers in a [`Workspace`]; [`Graph::reset`] recycles an entire
//! tape so steady-state re-runs allocate nothing.
//!
//! # Example
//!
//! ```
//! use pruner_nn::{Adam, Graph, Mlp, Module, Tensor, mse_loss};
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
//! let mut model = Mlp::new(&[2, 16, 1], &mut rng);
//! let mut adam = Adam::new(0.01);
//! let x = Tensor::from_vec(4, 2, vec![0., 0., 0., 1., 1., 0., 1., 1.]);
//! for _ in 0..10 {
//!     model.zero_grad();
//!     let mut g = Graph::new();
//!     let xi = g.constant(x.clone());
//!     let pred = model.forward(&mut g, xi);
//!     let loss = mse_loss(&mut g, pred, &[0.0, 1.0, 1.0, 2.0]);
//!     g.backward(loss);
//!     model.absorb_grads(&g);
//!     adam.step(model.params_mut());
//! }
//! ```

// `deny`, not `forbid`: the sole `unsafe` in this crate is in [`gemm`] —
// the CPUID-gated calls into the AVX2 clones and the AVX-512 kernels, and
// the AVX-512 kernels' raw-pointer loads and stores, each bounded by a
// slice-length assert in the same function and locally allowed with a
// SAFETY comment naming it. Everything else is safe Rust, new unsafe code
// is still rejected by default, and an unsafe block without a SAFETY
// comment fails clippy.
#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod gemm;
mod graph;
mod layers;
mod loss;
mod optim;
mod tensor;

pub use graph::{Graph, NodeId, Workspace};
pub use layers::{Linear, Mlp, Module, Param, SelfAttention};
pub use loss::{lambdarank_grad, latencies_to_relevance, mse_loss};
pub use optim::Adam;
pub use tensor::Tensor;
