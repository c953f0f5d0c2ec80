//! Structured records and their field-order-pinned JSON form: assembled
//! here in insertion order, with strings escaped by the JSON codec's own
//! escaper.

use crate::SCHEMA_VERSION;
use serde_json::push_escaped;
use std::fmt::Write as _;

/// A typed field value. The JSON rendering is deterministic: integers
/// print exactly, floats use Rust's shortest round-trip formatting (never
/// scientific notation), and non-finite floats render as `null`.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An unsigned integer (counts, indices, seeds).
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A float (simulated seconds, latencies, losses, host timings).
    F64(f64),
    /// A string (names, fault classes, paths).
    Str(String),
    /// A boolean flag.
    Bool(bool),
}

impl Value {
    /// The value as a u64, when it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as an f64 (integers widen losslessly where possible).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::F64(v) => Some(*v),
            Value::U64(v) => Some(*v as f64),
            Value::I64(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The value as a string slice, when it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    fn render(&self, out: &mut String) {
        match self {
            Value::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::I64(v) => {
                let _ = write!(out, "{v}");
            }
            // `Display`, not the `{:?}` the JSON codec uses: the trace
            // golden pins `"fault_rate":0`, which `{:?}` renders as `0.0`.
            Value::F64(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            Value::F64(_) => out.push_str("null"),
            Value::Bool(v) => {
                let _ = write!(out, "{v}");
            }
            Value::Str(s) => push_escaped(out, s),
        }
    }
}

/// One structured trace event: a record kind plus an ordered list of
/// typed fields. Fields render in insertion order, so two runs that emit
/// the same events produce byte-identical JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    kind: &'static str,
    fields: Vec<(&'static str, Value)>,
}

impl Record {
    /// Starts a record of the given kind (the JSON `type` field).
    pub fn new(kind: &'static str) -> Record {
        Record { kind, fields: Vec::new() }
    }

    /// The record kind.
    pub fn kind(&self) -> &'static str {
        self.kind
    }

    /// The fields in insertion order.
    pub fn fields(&self) -> &[(&'static str, Value)] {
        &self.fields
    }

    /// Looks a field up by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Adds an unsigned-integer field.
    pub fn u64(mut self, key: &'static str, value: u64) -> Record {
        self.fields.push((key, Value::U64(value)));
        self
    }

    /// Adds a signed-integer field.
    pub fn i64(mut self, key: &'static str, value: i64) -> Record {
        self.fields.push((key, Value::I64(value)));
        self
    }

    /// Adds a *deterministic* float field (simulated seconds, latencies,
    /// losses — values identical across runs). Host wall-clock readings
    /// must go through [`Record::host_f64`] instead.
    pub fn f64(mut self, key: &'static str, value: f64) -> Record {
        debug_assert!(
            !key.starts_with("host_"),
            "host-timing fields must be added with Record::host_f64"
        );
        self.fields.push((key, Value::F64(value)));
        self
    }

    /// Adds a *host-timing* float field. The key must carry the `host_`
    /// prefix — that prefix is the masking contract golden comparisons
    /// rely on ([`crate::mask_host_fields`]).
    pub fn host_f64(mut self, key: &'static str, value: f64) -> Record {
        assert!(key.starts_with("host_"), "host-timing fields must be named host_*: {key}");
        self.fields.push((key, Value::F64(value)));
        self
    }

    /// Adds a string field.
    pub fn str(mut self, key: &'static str, value: impl Into<String>) -> Record {
        self.fields.push((key, Value::Str(value.into())));
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, key: &'static str, value: bool) -> Record {
        self.fields.push((key, Value::Bool(value)));
        self
    }

    /// Renders the record as one JSON object:
    /// `{"v":<schema>,"type":"<kind>",<fields…>}`.
    pub(crate) fn to_json(&self) -> String {
        let mut out = String::with_capacity(64);
        let _ = write!(out, "{{\"v\":{SCHEMA_VERSION},\"type\":");
        push_escaped(&mut out, self.kind);
        for (key, value) in &self.fields {
            out.push(',');
            push_escaped(&mut out, key);
            out.push(':');
            value.render(&mut out);
        }
        out.push('}');
        out
    }
}

/// Replaces the value of every `host_*` field in a rendered JSONL text
/// with `"***"`, leaving all deterministic fields untouched — the
/// normalization golden snapshot comparisons apply before byte-comparing
/// two traces.
pub fn mask_host_fields(jsonl: &str) -> String {
    let mut out = String::with_capacity(jsonl.len());
    for line in jsonl.lines() {
        let mut rest = line;
        while let Some(pos) = rest.find("\"host_") {
            // Copy up to and including the key and its colon.
            let after_key = match rest[pos + 1..].find("\":") {
                Some(end) => pos + 1 + end + 2,
                None => break,
            };
            out.push_str(&rest[..after_key]);
            rest = &rest[after_key..];
            // Skip the value: everything up to the next ',' or '}' (host
            // values are always numbers or null, never nested).
            let value_end =
                rest.find([',', '}']).unwrap_or(rest.len());
            out.push_str("\"***\"");
            rest = &rest[value_end..];
        }
        out.push_str(rest);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_renders_fields_in_insertion_order() {
        let r = Record::new("funnel")
            .u64("round", 3)
            .u64("generated", 256)
            .f64("best_latency_s", 0.0015)
            .bool("psa", true)
            .str("task", "matmul");
        assert_eq!(
            r.to_json(),
            "{\"v\":1,\"type\":\"funnel\",\"round\":3,\"generated\":256,\
             \"best_latency_s\":0.0015,\"psa\":true,\"task\":\"matmul\"}"
        );
    }

    #[test]
    fn strings_are_escaped() {
        let r = Record::new("e").str("s", "a\"b\\c\nd\u{1}");
        assert_eq!(r.to_json(), "{\"v\":1,\"type\":\"e\",\"s\":\"a\\\"b\\\\c\\nd\\u0001\"}");
        // Every control byte, both JSON metacharacters, and a multi-byte
        // char (copied through untouched).
        let extra = ['"', '\\', 'é', '\u{1F600}'];
        let raw: String = (0u8..0x20).map(char::from).chain(extra).collect();
        let controls: String = (0u8..0x20)
            .map(|b| match b {
                b'\n' => "\\n".to_string(),
                b'\r' => "\\r".to_string(),
                b'\t' => "\\t".to_string(),
                _ => format!("\\u{b:04x}"),
            })
            .collect();
        let expected = format!("{{\"v\":1,\"type\":\"e\",\"s\":\"{controls}\\\"\\\\é\u{1F600}\"}}");
        assert_eq!(Record::new("e").str("s", raw).to_json(), expected);
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        let r = Record::new("e").f64("inf", f64::INFINITY).f64("nan", f64::NAN);
        assert_eq!(r.to_json(), "{\"v\":1,\"type\":\"e\",\"inf\":null,\"nan\":null}");
    }

    #[test]
    fn float_rendering_round_trips() {
        for v in [0.0, 1.0, 0.1, 1e-9, 123456.789, 3.0000000000000004] {
            let r = Record::new("e").f64("x", v);
            let json = r.to_json();
            let rendered = json.split("\"x\":").nth(1).unwrap().trim_end_matches('}');
            assert_eq!(rendered.parse::<f64>().unwrap(), v, "{json}");
        }
    }

    #[test]
    fn get_finds_fields() {
        let r = Record::new("e").u64("a", 1).str("b", "x");
        assert_eq!(r.get("a").and_then(Value::as_u64), Some(1));
        assert_eq!(r.get("b").and_then(Value::as_str), Some("x"));
        assert!(r.get("missing").is_none());
        assert_eq!(r.kind(), "e");
    }

    #[test]
    #[should_panic(expected = "host_")]
    fn host_f64_rejects_unprefixed_keys() {
        let _ = Record::new("e").host_f64("elapsed_s", 1.0);
    }

    #[test]
    fn mask_host_fields_blinds_only_host_values() {
        let a = Record::new("span").str("name", "round").host_f64("host_s", 0.123).to_json();
        let b = Record::new("span").str("name", "round").host_f64("host_s", 9.876).to_json();
        assert_ne!(a, b);
        assert_eq!(mask_host_fields(&a), mask_host_fields(&b));
        assert!(mask_host_fields(&a).contains("\"host_s\":\"***\""));
        assert!(mask_host_fields(&a).contains("\"name\":\"round\""));
    }

    #[test]
    fn mask_host_fields_handles_multiple_hosts_per_line() {
        let line = Record::new("span")
            .u64("round", 2)
            .host_f64("host_a", 1.5)
            .f64("sim_s", 2.5)
            .host_f64("host_b", 3.5)
            .to_json();
        let masked = mask_host_fields(&line);
        assert_eq!(
            masked.trim_end(),
            "{\"v\":1,\"type\":\"span\",\"round\":2,\"host_a\":\"***\",\
             \"sim_s\":2.5,\"host_b\":\"***\"}"
        );
    }
}
