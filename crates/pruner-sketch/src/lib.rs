//! Ansor-style schedule search space for the Pruner reproduction.
//!
//! A tensor [`Program`] pairs a workload from `pruner-ir`
//! with a concrete [`Schedule`]: the multi-level tiling structure Ansor
//! generates for GPUs (the "SSSRRSRS" sketch — block / virtual-thread /
//! thread / serial×2 splits of every spatial axis and a three-level split of
//! every reduction axis, with shared-memory staging), or the simpler
//! block/thread schedules used for element-wise and reduction workloads.
//!
//! From a schedule the crate derives its statistics: threads per block,
//! block count, register and shared-memory footprints, global-memory
//! traffic, the innermost *buffer statements* the Parameterized Static
//! Analyzer prices, and the temporal *data-flow steps*
//! (global→shared→register→compute→writeback) that feed PaCM's data-flow
//! features. The GPU simulator, PSA and the feature writer read nothing
//! else, so this crate is the single source of truth for what a candidate
//! schedule *does*.
//!
//! The schedule model is written once, on fixed-size genes ([`GeneBuf`],
//! read through a [`WorkloadCtx`]): sampling, mutation, crossover,
//! validity, fingerprints, the [`StatsRow`] and the [`FlowRow`]. The
//! candidate arena ([`CandidateArena`]) stores those rows column by column
//! for million-candidate pools; a materialized [`Program`] packs its
//! schedule into genes and calls the same routines —
//! [`Program::sample`], [`Program::is_valid`], [`Program::fingerprint`],
//! the [`evolve`] operators — and [`Program::stats`] assembles its
//! [`ProgramStats`] from the two rows.
//!
//! # Example
//!
//! ```
//! use pruner_ir::Workload;
//! use pruner_sketch::{HardwareLimits, Program};
//! use rand::SeedableRng;
//!
//! let wl = Workload::matmul(1, 512, 512, 512);
//! let limits = HardwareLimits::default();
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
//! let prog = Program::sample(&wl, &limits, &mut rng);
//! let stats = prog.stats();
//! assert!(stats.threads_per_block <= limits.max_threads_per_block);
//! assert!(stats.flops_total >= wl.flops());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod arena;
mod config;
pub mod evolve;
mod limits;
mod program;
pub mod render;
pub mod split;
mod stats;

pub use arena::{CandidateArena, FlowRow, GeneBuf, SketchKind, StatsRow, WorkloadCtx};
pub use config::{ReduceConfig, Schedule, SimpleConfig, TileConfig};
pub use limits::HardwareLimits;
pub use program::Program;
pub use stats::{BufferStmt, DataFlowStep, MemLevel, ProgramStats, StmtKind};
