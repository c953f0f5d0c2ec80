//! Parametric analytical GPU model — the hardware substrate of the
//! reproduction.
//!
//! The paper measures candidate tensor programs on five real NVIDIA GPUs.
//! This crate substitutes a deterministic analytical simulator: given the
//! [`ProgramStats`](pruner_sketch::ProgramStats) of a scheduled program and
//! a [`GpuSpec`], [`Simulator::latency`] prices the kernel with the effects
//! real GPUs exhibit and simple formulas miss — occupancy limited by
//! registers/shared memory/warp slots, wave quantization and tail effects,
//! DRAM coalescing against the transaction size, L2 reuse, shared-memory
//! bandwidth, register spilling, and a smooth microarchitectural "quirk"
//! term that learned cost models can pick up from features but closed-form
//! analyzers cannot.
//!
//! [`Simulator::measure`] adds reproducible measurement noise on top, and
//! [`vendor::vendor_latency`] plays the role of the PyTorch-cuDNN baseline
//! (near-roofline kernels with Winograd-style wins on regular 3×3
//! convolutions).
//!
//! # Example
//!
//! ```
//! use pruner_gpu::{GpuSpec, Simulator};
//! use pruner_ir::Workload;
//! use pruner_sketch::{HardwareLimits, Program};
//! use rand::SeedableRng;
//!
//! let spec = GpuSpec::t4();
//! let sim = Simulator::new(spec);
//! let wl = Workload::matmul(1, 1024, 1024, 1024);
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let prog = Program::sample(&wl, &HardwareLimits::default(), &mut rng);
//! let secs = sim.latency(&prog);
//! assert!(secs > 0.0 && secs.is_finite());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod backend;
mod fault;
mod sim;
mod spec;
mod stall;
pub mod vendor;

pub use backend::Backend;
pub use fault::{FaultDraw, FaultKind, FaultModel, Measurement};
pub use sim::{SimConfig, Simulator};
pub use spec::GpuSpec;
pub use stall::{StallBackend, StallControl};
