//! Learned cost models: PaCM and the paper's comparators.
//!
//! Every model implements [`CostModel`]: score a batch of candidate
//! programs (higher = predicted faster) and train on measured
//! [`Sample`]s. The roster mirrors the paper's evaluation:
//!
//! * [`PacmModel`] — Pruner's Pattern-aware Cost Model: an MLP branch over
//!   statement-level features summed across statements, a self-attention
//!   branch over the 23-dim data-flow sequence, concatenated into a ranking
//!   head trained with LambdaRank (§2.4).
//! * [`TensetMlpModel`] — the TensetMLP baseline: statement features only.
//! * [`TlpModel`] — the TLP baseline: a small transformer over
//!   schedule-primitive tokens, no low-level analysis.
//! * [`AnsorModel`] — Ansor's online model, approximated by a compact MLP on
//!   pooled statement features with an MSE objective.
//! * [`RandomModel`] — the no-model floor.
//!
//! [`metrics`] implements the paper's Top-k and Best-k (Appendix A).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod ansor;
mod gbdt;
pub mod metrics;
mod model;
mod pacm;
mod sample;
mod tenset_mlp;
#[cfg(test)]
mod test_util;
mod tlp;

pub use ansor::AnsorModel;
pub use gbdt::{Gbdt, XgbModel};
pub use model::{CostModel, ModelKind, ModelSnapshot, RandomModel};
pub use pacm::{HeadSnapshot, PacmModel};
pub use sample::Sample;
pub use tenset_mlp::TensetMlpModel;
pub use tlp::TlpModel;
