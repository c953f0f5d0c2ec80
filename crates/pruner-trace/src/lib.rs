//! **pruner-trace** — the deterministic observability layer of the Pruner
//! stack.
//!
//! A tuning campaign is a funnel: thousands of candidates are bred, PSA
//! drafts a target space, the cost model verifies a shortlist, and a
//! handful of programs reach the (simulated) device. This crate makes that
//! funnel visible without touching the repo's bit-identical determinism
//! guarantee:
//!
//! * [`Recorder`] — the instrumentation interface the tuner and its
//!   measurer talk to; the tuner times and counts the generator, PSA and
//!   cost-model calls it makes, so those crates never link this one.
//!   Every method has an empty default body, so the [`NoopRecorder`]
//!   (the default everywhere) compiles the hot path down to nothing: no
//!   clock reads, no allocation, no branch beyond the virtual call.
//! * [`Record`] / [`Value`] — one structured event: a `type` tag plus an
//!   ordered list of typed fields, serialized by hand so the JSON field
//!   order is pinned byte-for-byte.
//! * [`TraceHandle`] — the real recorder: a cheaply cloneable shared
//!   buffer that collects span timings (monotonic clock), aggregated
//!   counters, gauges and events, renders them as versioned JSONL
//!   ([`SCHEMA_VERSION`]), writes the file atomically (tmp + rename, the
//!   same pattern as campaign checkpoints) and can summarize itself as an
//!   end-of-campaign [`Report`].
//!
//! # Determinism contract
//!
//! Every field in a record is either **deterministic** (counts, simulated
//! seconds, seeds, round indices — identical across runs, thread counts
//! and machines) or **host timing** (real wall-clock measured with a
//! monotonic clock). Host fields are *always* named with a `host_`
//! prefix — [`Record::host_f64`] enforces this — so golden comparisons
//! mask exactly the `host_*` keys ([`mask_host_fields`]) and compare
//! everything else byte-for-byte.
//!
//! # Example
//!
//! ```
//! use pruner_trace::{Record, Recorder, TraceHandle};
//!
//! let mut trace = TraceHandle::new();
//! trace.span_begin("round");
//! trace.counter("candidates", 256);
//! trace.emit(Record::new("funnel").u64("round", 0).u64("generated", 256));
//! trace.span_end("round");
//! let jsonl = trace.to_jsonl();
//! assert!(jsonl.lines().all(|l| l.starts_with("{\"v\":1,")));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod record;
mod report;
mod sink;

pub use record::{mask_host_fields, Record, Value};
pub use report::{FleetActivity, Report, ServeActivity, StoreActivity, SupervisorActivity};
pub use sink::TraceHandle;

/// Version stamped into every JSONL record as the leading `"v"` field.
/// Bumped on any incompatible change to record kinds or field layouts;
/// pinned by the `trace_golden` snapshot suite.
pub const SCHEMA_VERSION: u32 = 1;

/// The instrumentation interface of the tuning stack.
///
/// Everything that can observe a campaign — spans with monotonic timing,
/// monotonic counters, gauges, and free-form structured [`Record`]s —
/// goes through this trait. All methods default to no-ops so that
/// [`NoopRecorder`] (installed everywhere tracing is off) costs nothing
/// on the hot path; instrumentation sites that would do real work to
/// *prepare* an event should guard it with [`Recorder::enabled`].
pub trait Recorder: Send {
    /// Whether this recorder keeps anything. `false` lets callers skip
    /// building event payloads entirely.
    fn enabled(&self) -> bool {
        false
    }

    /// Opens a named span. Spans nest; pair each call with
    /// [`Recorder::span_end`] on the same name.
    fn span_begin(&mut self, _name: &'static str) {}

    /// Closes the innermost open span with this name, emits a `span`
    /// record carrying the host-elapsed seconds, and returns that elapsed
    /// time (0.0 when disabled) so callers can feed wall-clock ledgers
    /// from the same measurement — one timing source, no second clock
    /// read.
    fn span_end(&mut self, _name: &'static str) -> f64 {
        0.0
    }

    /// Adds `delta` to a named monotonic counter. Counters are aggregated
    /// and emitted as one `counter` record each (sorted by name) when the
    /// trace is rendered.
    fn counter(&mut self, _name: &'static str, _delta: u64) {}

    /// Emits a `gauge` record: a named point-in-time value.
    fn gauge(&mut self, _name: &'static str, _value: f64) {}

    /// Emits one structured record verbatim.
    fn emit(&mut self, _record: Record) {}

    /// A second handle onto the *same* underlying trace, when the
    /// recorder supports sharing (a [`TraceHandle`] clone writing into
    /// the same buffer). The supervisor uses this to hand a restarted
    /// campaign the recorder of its predecessor, so one trace covers
    /// every incarnation. `None` (the default) means the recorder cannot
    /// be shared — callers fall back to a [`NoopRecorder`].
    fn fork(&self) -> Option<Box<dyn Recorder>> {
        None
    }
}

/// The do-nothing recorder installed wherever tracing is off. Every
/// method is the trait's empty default, so a disabled campaign performs
/// no clock reads and no allocation on behalf of observability.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_recorder_is_disabled_and_inert() {
        let mut rec = NoopRecorder;
        assert!(!rec.enabled());
        rec.span_begin("x");
        rec.counter("c", 3);
        rec.gauge("g", 1.5);
        rec.emit(Record::new("anything"));
        assert_eq!(rec.span_end("x"), 0.0);
    }

    #[test]
    fn noop_recorder_works_as_trait_object() {
        let mut boxed: Box<dyn Recorder> = Box::<NoopRecorder>::default();
        boxed.span_begin("span");
        assert_eq!(boxed.span_end("span"), 0.0);
        assert!(!boxed.enabled());
    }
}
