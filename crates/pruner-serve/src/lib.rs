//! **pruner-serve** — the resident multi-tenant tuning daemon.
//!
//! The one-shot CLI pays full startup cost (model deserialization, store
//! replay, arena warm-up) for every campaign. This crate keeps a tuning
//! service *resident*: a daemon that listens on a Unix domain socket,
//! schedules campaigns from many tenants over a bounded worker pool, and
//! shares two expensive assets across all of them —
//!
//! * **one store** ([`pruner_store::SharedStore`]): every tenant's
//!   measurements land in a single backend-tagged JSONL ledger, so tenant
//!   B's campaign replays tenant A's overlapping measurements for free;
//! * **one model** (an `Arc<dyn CostModel>`): concurrent `PredictOnly`
//!   requests and campaign-side predictions against a named frozen model
//!   are coalesced by the [`Batcher`] into single `predict_batch` calls.
//!
//! The exported types mirror the request path:
//!
//! * the wire protocol — versioned newline-delimited JSON
//!   ([`SCHEMA_VERSION`], [`Request`], [`Response`], [`WireError`]);
//! * [`Client`] — a minimal blocking client used by the CLI and tests;
//! * [`Batcher`] — the cross-tenant inference coalescer;
//! * [`Scheduler`] — per-tenant budgets, round-robin admission, campaign
//!   lifecycle state ([`CampaignState`]);
//! * [`Daemon`] — the socket accept loop, per-tenant checkpoint
//!   directories, and the restart scan that resumes every in-flight
//!   campaign after a crash.
//!
//! # Determinism contract
//!
//! A campaign submitted through the daemon produces a `TuningResult` and
//! store records **byte-identical** to the same submission run through
//! the one-shot CLI. Scheduling only decides *when* a campaign runs;
//! everything inside a campaign is keyed on its own
//! [`pruner_tuner::TunerConfig`] seed. The `tests/serve.rs` golden pins
//! this.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod batcher;
mod client;
mod daemon;
mod scheduler;
mod wire;

pub use batcher::Batcher;
pub use client::Client;
pub use daemon::{Daemon, ServeConfig};
pub use scheduler::{CampaignState, Scheduler};
pub use wire::{Request, Response, WireError, SCHEMA_VERSION};
