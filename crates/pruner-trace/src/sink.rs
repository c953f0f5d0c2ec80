//! The collecting recorder and its durable JSONL sink.

use crate::record::Record;
use crate::report::Report;
use crate::Recorder;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Shared buffer behind every [`TraceHandle`] clone.
#[derive(Debug, Default)]
struct TraceBuf {
    records: Vec<Record>,
    /// Open spans, innermost last.
    open_spans: Vec<(&'static str, Instant)>,
    /// Aggregated monotonic counters, in sorted-name order.
    counters: BTreeMap<&'static str, u64>,
}

/// The collecting recorder: a cheaply cloneable handle to one shared
/// trace buffer.
///
/// The campaign owner keeps one clone and installs another on the tuner;
/// when the campaign finishes, the owner renders the buffer as JSONL
/// ([`TraceHandle::to_jsonl`]), writes it atomically
/// ([`TraceHandle::write_atomic`]) or summarizes it as a [`Report`].
///
/// Span timings use a monotonic clock ([`Instant`]) and are emitted as
/// `span` records whose only non-deterministic field is `host_s`;
/// counters aggregate across the whole campaign and render as one
/// `counter` record per name, sorted, after all event records.
#[derive(Debug, Clone, Default)]
pub struct TraceHandle {
    inner: Arc<Mutex<TraceBuf>>,
}

impl TraceHandle {
    /// Creates an empty trace buffer.
    pub fn new() -> TraceHandle {
        TraceHandle::default()
    }

    /// Number of event records collected so far (aggregated counters not
    /// included).
    pub fn len(&self) -> usize {
        self.inner.lock().expect("trace lock").records.len()
    }

    /// Whether no event was recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of every record in emission order, with the aggregated
    /// `counter` records appended in sorted-name order.
    pub fn records(&self) -> Vec<Record> {
        let buf = self.inner.lock().expect("trace lock");
        let mut out = buf.records.clone();
        out.extend(
            buf.counters
                .iter()
                .map(|(name, value)| Record::new("counter").str("name", *name).u64("value", *value)),
        );
        out
    }

    /// Renders the whole trace as JSONL: one record per line, schema
    /// version stamped into every line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for record in self.records() {
            out.push_str(&record.to_json());
            out.push('\n');
        }
        out
    }

    /// Writes the JSONL trace to `path` atomically and durably through
    /// [`pruner_durable::write_atomic_durable`] — the write every campaign
    /// artifact uses — so a killed process leaves either the previous
    /// trace or the new one, never a torn file.
    pub fn write_atomic(&self, path: &Path) -> io::Result<()> {
        pruner_durable::write_atomic_durable(path, &self.to_jsonl(), None)
    }

    /// Aggregates the collected records into an end-of-campaign report.
    pub fn report(&self) -> Report {
        Report::from_records(&self.records())
    }
}

impl Recorder for TraceHandle {
    fn enabled(&self) -> bool {
        true
    }

    fn span_begin(&mut self, name: &'static str) {
        let mut buf = self.inner.lock().expect("trace lock");
        buf.open_spans.push((name, Instant::now()));
    }

    fn span_end(&mut self, name: &'static str) -> f64 {
        let mut buf = self.inner.lock().expect("trace lock");
        // Close the innermost span with this name; tolerate (and ignore)
        // an unmatched end rather than poisoning the campaign.
        let Some(idx) = buf.open_spans.iter().rposition(|(n, _)| *n == name) else {
            return 0.0;
        };
        let (_, started) = buf.open_spans.remove(idx);
        let depth = idx as u64;
        let elapsed = started.elapsed().as_secs_f64();
        buf.records.push(
            Record::new("span").str("name", name).u64("depth", depth).host_f64("host_s", elapsed),
        );
        elapsed
    }

    fn counter(&mut self, name: &'static str, delta: u64) {
        let mut buf = self.inner.lock().expect("trace lock");
        *buf.counters.entry(name).or_insert(0) += delta;
    }

    fn gauge(&mut self, name: &'static str, value: f64) {
        self.emit(Record::new("gauge").str("name", name).f64("value", value));
    }

    fn emit(&mut self, record: Record) {
        let mut buf = self.inner.lock().expect("trace lock");
        buf.records.push(record);
    }

    fn fork(&self) -> Option<Box<dyn Recorder>> {
        Some(Box::new(self.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{mask_host_fields, Value};

    #[test]
    fn spans_nest_and_emit_on_end() {
        let mut t = TraceHandle::new();
        t.span_begin("outer");
        t.span_begin("inner");
        let inner = t.span_end("inner");
        let outer = t.span_end("outer");
        assert!(inner >= 0.0 && outer >= inner, "outer spans cover inner ones");
        let records = t.records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].get("name").and_then(Value::as_str), Some("inner"));
        assert_eq!(records[0].get("depth").and_then(Value::as_u64), Some(1));
        assert_eq!(records[1].get("name").and_then(Value::as_str), Some("outer"));
        assert_eq!(records[1].get("depth").and_then(Value::as_u64), Some(0));
    }

    #[test]
    fn unmatched_span_end_is_tolerated() {
        let mut t = TraceHandle::new();
        assert_eq!(t.span_end("never-opened"), 0.0);
        assert!(t.is_empty());
    }

    #[test]
    fn counters_aggregate_and_sort() {
        let mut t = TraceHandle::new();
        t.counter("b.second", 2);
        t.counter("a.first", 1);
        t.counter("b.second", 3);
        let records = t.records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].get("name").and_then(Value::as_str), Some("a.first"));
        assert_eq!(records[0].get("value").and_then(Value::as_u64), Some(1));
        assert_eq!(records[1].get("name").and_then(Value::as_str), Some("b.second"));
        assert_eq!(records[1].get("value").and_then(Value::as_u64), Some(5));
    }

    #[test]
    fn clones_share_one_buffer() {
        let mut a = TraceHandle::new();
        let mut b = a.clone();
        a.emit(Record::new("from_a"));
        b.emit(Record::new("from_b"));
        b.counter("shared", 1);
        assert_eq!(a.len(), 2);
        assert_eq!(a.records().len(), 3);
    }

    #[test]
    fn fork_shares_the_same_buffer() {
        let a = TraceHandle::new();
        let mut forked = Recorder::fork(&a).expect("TraceHandle is shareable");
        assert!(forked.enabled());
        forked.emit(Record::new("from_fork"));
        assert_eq!(a.len(), 1, "a forked recorder writes into the original trace");
        assert!(crate::NoopRecorder.fork().is_none(), "the noop recorder cannot be shared");
    }

    #[test]
    fn jsonl_is_versioned_and_line_per_record() {
        let mut t = TraceHandle::new();
        t.emit(Record::new("one").u64("x", 1));
        t.gauge("loss", 0.25);
        t.counter("n", 7);
        let jsonl = t.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines.iter().all(|l| l.starts_with("{\"v\":1,\"type\":\"")));
        assert!(lines[1].contains("\"name\":\"loss\""));
        assert!(lines[2].contains("\"value\":7"));
    }

    #[test]
    fn two_identical_runs_differ_only_in_host_fields() {
        let run = || {
            let mut t = TraceHandle::new();
            t.span_begin("round");
            t.emit(Record::new("funnel").u64("round", 0).u64("generated", 9));
            t.span_end("round");
            t.counter("measured", 4);
            t.to_jsonl()
        };
        let (a, b) = (run(), run());
        assert_eq!(mask_host_fields(&a), mask_host_fields(&b));
    }
}
