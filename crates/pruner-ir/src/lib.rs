//! Tensor workload intermediate representation for the Pruner reproduction.
//!
//! This crate is the bottom of the Pruner stack. It models the *what* of
//! tensor program tuning — the operators a deep-learning compiler must
//! schedule — independent of the *how* (schedules live in `pruner-sketch`,
//! hardware in `pruner-gpu`).
//!
//! The central type is [`Workload`]: a single fused tensor computation
//! (matrix multiply, 2-D/3-D convolution, depthwise convolution,
//! element-wise map, or reduction) with concrete shapes. A workload exposes
//! its canonical loop nest ([`Workload::axes`]), arithmetic intensity
//! ([`Workload::flops`], [`Workload::operand_elems`]) and per-tile memory
//! footprints ([`Workload::operand_tile_elems`]) — everything the schedule
//! generator, the static analyzer and the GPU simulator need to reason about
//! a candidate schedule without a real tensor IR underneath.
//!
//! On top of workloads sit [`Subgraph`]s (a workload plus its occurrence
//! count inside a network) and [`Network`]s, with a [`zoo`] of the ten DNNs
//! evaluated in the paper (ResNet-50, Wide-ResNet-50, Inception-V3,
//! DenseNet-121, MobileNet-V2, ViT, DeepLab-V3, DeTR, BERT-base/tiny, plus
//! R3D-18 used by Table 1) and the operator [`suites`] used by Figure 7 and
//! Table 6.
//!
//! # Example
//!
//! ```
//! use pruner_ir::{Workload, zoo};
//!
//! // A BERT-base attention projection GEMM.
//! let wl = Workload::matmul(1, 512, 768, 768);
//! assert_eq!(wl.flops(), 2.0 * 512.0 * 768.0 * 768.0);
//!
//! // The ResNet-50 network is a weighted bag of subgraphs.
//! let net = zoo::resnet50(1);
//! assert!(net.subgraphs().len() > 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod axis;
mod network;
pub mod suites;
mod workload;
pub mod zoo;

pub use axis::{Axis, AxisKind};
pub use network::{Network, Subgraph};
pub use workload::{Conv2dShape, Conv3dShape, EwKind, MatMulShape, OperatorClass, Workload};
