//! The daemon's versioned wire format: newline-delimited JSON requests
//! and responses over a Unix domain socket.
//!
//! Every line is one JSON object whose first two fields are pinned:
//! `"v"` (the [`SCHEMA_VERSION`]) and `"type"` (the message tag). The
//! [`serde::Serialize`] impls are written by hand against the ordered
//! [`Content`] map — the same field-order-stable discipline as the
//! `pruner-trace` JSONL schema — so a given message always renders the
//! same bytes, and goldens can compare wire traffic verbatim.
//!
//! Parsing is tolerant where the store's reader is tolerant: unknown
//! fields are ignored (readers only look up the keys they know), and a
//! well-formed object with an unknown `"v"` is classified as
//! [`WireError::Version`] — a *newer peer*, not corruption — by the same
//! version gate (`pruner_durable::open_versioned`) every store line,
//! checkpoint and manifest is opened through. Truncated or non-JSON lines
//! are [`WireError::Malformed`].

use pruner_durable::{open_versioned, DecodeError};
use pruner_gpu::GpuSpec;
use pruner_ir::Workload;
use pruner_sketch::Program;
use pruner_tuner::TunerConfig;
use serde::{content_get, Content, Deserialize, Serialize};

/// The wire schema version, stamped as the leading `"v"` field of every
/// request and response line. Bump on any incompatible message change.
pub const SCHEMA_VERSION: u32 = 1;

/// Why a wire line failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Not a JSON object at all — including a line truncated mid-write.
    Malformed(String),
    /// A well-formed message stamped with a schema version this build
    /// does not speak.
    Version {
        /// The version the peer sent.
        got: u64,
    },
    /// Known version, but the message shape is wrong (bad `type`, missing
    /// or mistyped field).
    Invalid(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Malformed(msg) => write!(f, "malformed wire line: {msg}"),
            WireError::Version { got } => {
                write!(f, "unsupported wire schema version {got} (expected {SCHEMA_VERSION})")
            }
            WireError::Invalid(msg) => write!(f, "invalid wire message: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<DecodeError> for WireError {
    fn from(e: DecodeError) -> WireError {
        match e {
            DecodeError::Malformed(msg) => WireError::Malformed(msg),
            DecodeError::Version { got } => WireError::Version { got },
            DecodeError::Invalid(msg) => WireError::Invalid(msg),
        }
    }
}

/// A client→daemon request: one JSON line on the socket.
// `SubmitCampaign` dwarfs the other variants (it carries a whole
// `TunerConfig` and spec); requests are parsed once per socket line and
// never stored in bulk, so the stack-size spread is irrelevant and not
// worth a `Box` in the public API.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a campaign for `tenant`; the daemon replies with the
    /// campaign id it will run under.
    SubmitCampaign {
        /// Tenant the campaign belongs to (its scheduling budget and
        /// checkpoint directory).
        tenant: String,
        /// Platform to tune for.
        spec: GpuSpec,
        /// Tasks as `(workload, weight)` pairs.
        workloads: Vec<(Workload, u64)>,
        /// Campaign parameters (seed included — determinism is keyed on
        /// this whole struct).
        config: TunerConfig,
        /// Share the named pre-trained daemon model (frozen, predictions
        /// batched across tenants) instead of training a fresh model
        /// inside the campaign. `None` trains fresh.
        model: Option<String>,
    },
    /// Ask for a campaign's current state.
    Status {
        /// The campaign id returned at submit time.
        campaign: String,
    },
    /// Cancel a queued or running campaign (running campaigns park their
    /// checkpoint first, so a later submit can resume the work).
    Cancel {
        /// The campaign id to cancel.
        campaign: String,
    },
    /// Score a batch of serialized programs against a named model without
    /// running a campaign.
    PredictOnly {
        /// Daemon model name (a `ModelKind` name or a snapshot file in
        /// the daemon's model directory).
        model: String,
        /// The programs to score.
        programs: Vec<Program>,
    },
    /// Ask the daemon to park every running campaign and exit.
    Shutdown,
}

/// A daemon→client response: one JSON line per request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The campaign was accepted and queued.
    Submitted {
        /// Daemon-assigned campaign id; use it in `Status`/`Cancel`.
        campaign: String,
    },
    /// A campaign's current state.
    Status {
        /// The campaign id asked about.
        campaign: String,
        /// Lifecycle state: `queued`, `running`, `done`, `cancelled` or
        /// `failed`.
        state: String,
        /// Best weighted latency so far, when the campaign has one.
        best_latency_s: Option<f64>,
        /// The final `TuningResult` as compact JSON
        /// (`serde_json::to_string`), once the campaign is done. It is
        /// byte-identical to the campaign's persisted `result.json` and to
        /// the compact JSON of the same submission tuned in-process
        /// (`tests/serve.rs` pins both). The one-shot CLI's `--output`
        /// holds the same value, pretty-printed.
        result: Option<String>,
    },
    /// The cancel was accepted.
    Cancelled {
        /// The campaign id cancelled.
        campaign: String,
    },
    /// Scores for a `PredictOnly` batch, one per program in order.
    Scores {
        /// Model scores (higher = predicted faster; comparable only
        /// within one model).
        scores: Vec<f32>,
    },
    /// The daemon is parking campaigns and exiting.
    ShuttingDown,
    /// The request could not be served.
    Error {
        /// What went wrong.
        message: String,
    },
}

/// Builds the ordered envelope every message shares: `v`, then `type`,
/// then the payload fields.
fn envelope(ty: &str, fields: Vec<(String, Content)>) -> Content {
    let mut map = Vec::with_capacity(fields.len() + 2);
    map.push(("v".to_string(), Content::U64(u64::from(SCHEMA_VERSION))));
    map.push(("type".to_string(), Content::Str(ty.to_string())));
    map.extend(fields);
    Content::Map(map)
}

/// An opened envelope: the message's field map and its `type` tag.
type Envelope<'a> = (&'a [(String, Content)], &'a str);

/// Opens a gated envelope (`open_versioned` has already checked that it
/// is an object of this schema version): returns the map and the tag.
fn open_envelope(c: &Content) -> Result<Envelope<'_>, WireError> {
    let map = c.as_map().unwrap_or_default();
    let ty = content_get(map, "type")
        .and_then(Content::as_str)
        .ok_or_else(|| WireError::Invalid("missing message tag field `type`".into()))?;
    Ok((map, ty))
}

/// Pulls a required typed field out of an envelope map.
fn field<T: Deserialize>(map: &[(String, Content)], key: &str) -> Result<T, WireError> {
    let content = content_get(map, key)
        .ok_or_else(|| WireError::Invalid(format!("missing field `{key}`")))?;
    T::from_content(content).map_err(|e| WireError::Invalid(format!("field `{key}`: {e}")))
}

/// Pulls an optional field: absent and JSON `null` both mean `None`.
fn opt_field<T: Deserialize>(
    map: &[(String, Content)],
    key: &str,
) -> Result<Option<T>, WireError> {
    match content_get(map, key) {
        None | Some(Content::Null) => Ok(None),
        Some(content) => T::from_content(content)
            .map(Some)
            .map_err(|e| WireError::Invalid(format!("field `{key}`: {e}"))),
    }
}

impl Serialize for Request {
    fn to_content(&self) -> Content {
        match self {
            Request::SubmitCampaign { tenant, spec, workloads, config, model } => envelope(
                "submit_campaign",
                vec![
                    ("tenant".into(), tenant.to_content()),
                    ("spec".into(), spec.to_content()),
                    ("workloads".into(), workloads.to_content()),
                    ("config".into(), config.to_content()),
                    ("model".into(), model.to_content()),
                ],
            ),
            Request::Status { campaign } => {
                envelope("status", vec![("campaign".into(), campaign.to_content())])
            }
            Request::Cancel { campaign } => {
                envelope("cancel", vec![("campaign".into(), campaign.to_content())])
            }
            Request::PredictOnly { model, programs } => envelope(
                "predict_only",
                vec![
                    ("model".into(), model.to_content()),
                    ("programs".into(), programs.to_content()),
                ],
            ),
            Request::Shutdown => envelope("shutdown", vec![]),
        }
    }
}

impl Serialize for Response {
    fn to_content(&self) -> Content {
        match self {
            Response::Submitted { campaign } => {
                envelope("submitted", vec![("campaign".into(), campaign.to_content())])
            }
            Response::Status { campaign, state, best_latency_s, result } => envelope(
                "status",
                vec![
                    ("campaign".into(), campaign.to_content()),
                    ("state".into(), state.to_content()),
                    ("best_latency_s".into(), best_latency_s.to_content()),
                    ("result".into(), result.to_content()),
                ],
            ),
            Response::Cancelled { campaign } => {
                envelope("cancelled", vec![("campaign".into(), campaign.to_content())])
            }
            Response::Scores { scores } => {
                envelope("scores", vec![("scores".into(), scores.to_content())])
            }
            Response::ShuttingDown => envelope("shutting_down", vec![]),
            Response::Error { message } => {
                envelope("error", vec![("message".into(), message.to_content())])
            }
        }
    }
}

impl Request {
    /// Renders the request as one wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        serde_json::to_string(self).expect("wire requests always serialize")
    }

    /// Parses one wire line, classifying failures per [`WireError`].
    pub fn parse_line(line: &str) -> Result<Request, WireError> {
        let content = open_versioned(line.trim(), "v", u64::from(SCHEMA_VERSION))?;
        let (map, ty) = open_envelope(&content)?;
        match ty {
            "submit_campaign" => Ok(Request::SubmitCampaign {
                tenant: field(map, "tenant")?,
                spec: field(map, "spec")?,
                workloads: field(map, "workloads")?,
                config: field(map, "config")?,
                model: opt_field(map, "model")?,
            }),
            "status" => Ok(Request::Status { campaign: field(map, "campaign")? }),
            "cancel" => Ok(Request::Cancel { campaign: field(map, "campaign")? }),
            "predict_only" => Ok(Request::PredictOnly {
                model: field(map, "model")?,
                programs: field(map, "programs")?,
            }),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(WireError::Invalid(format!("unknown request type `{other}`"))),
        }
    }
}

impl Response {
    /// Renders the response as one wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        serde_json::to_string(self).expect("wire responses always serialize")
    }

    /// Parses one wire line, classifying failures per [`WireError`].
    pub fn parse_line(line: &str) -> Result<Response, WireError> {
        let content = open_versioned(line.trim(), "v", u64::from(SCHEMA_VERSION))?;
        let (map, ty) = open_envelope(&content)?;
        match ty {
            "submitted" => Ok(Response::Submitted { campaign: field(map, "campaign")? }),
            "status" => Ok(Response::Status {
                campaign: field(map, "campaign")?,
                state: field(map, "state")?,
                best_latency_s: opt_field(map, "best_latency_s")?,
                result: opt_field(map, "result")?,
            }),
            "cancelled" => Ok(Response::Cancelled { campaign: field(map, "campaign")? }),
            "scores" => Ok(Response::Scores { scores: field(map, "scores")? }),
            "shutting_down" => Ok(Response::ShuttingDown),
            "error" => Ok(Response::Error { message: field(map, "message")? }),
            other => Err(WireError::Invalid(format!("unknown response type `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn demo_submit() -> Request {
        Request::SubmitCampaign {
            tenant: "acme".into(),
            spec: GpuSpec::t4(),
            workloads: vec![
                (Workload::matmul(1, 64, 64, 64), 1),
                (Workload::reduction(128, 256), 2),
            ],
            config: TunerConfig::quick(),
            model: Some("pacm".into()),
        }
    }

    fn round_trip_request(req: &Request) -> Request {
        let line = req.to_line();
        let back = Request::parse_line(&line).expect("round trip must parse");
        assert_eq!(back.to_line(), line, "round trip must be byte-stable");
        back
    }

    fn round_trip_response(resp: &Response) -> Response {
        let line = resp.to_line();
        let back = Response::parse_line(&line).expect("round trip must parse");
        assert_eq!(back.to_line(), line, "round trip must be byte-stable");
        back
    }

    #[test]
    fn every_request_kind_round_trips() {
        round_trip_request(&demo_submit());
        round_trip_request(&Request::Status { campaign: "acme-1".into() });
        round_trip_request(&Request::Cancel { campaign: "acme-1".into() });
        round_trip_request(&Request::PredictOnly {
            model: "pacm".into(),
            programs: vec![Program::fallback(&Workload::matmul(1, 64, 64, 64))],
        });
        round_trip_request(&Request::Shutdown);
    }

    #[test]
    fn every_response_kind_round_trips() {
        round_trip_response(&Response::Submitted { campaign: "acme-1".into() });
        round_trip_response(&Response::Status {
            campaign: "acme-1".into(),
            state: "running".into(),
            best_latency_s: Some(1.5e-3),
            result: None,
        });
        round_trip_response(&Response::Status {
            campaign: "acme-1".into(),
            state: "done".into(),
            best_latency_s: Some(1.5e-3),
            result: Some("{\"curve\":[]}".into()),
        });
        round_trip_response(&Response::Cancelled { campaign: "acme-1".into() });
        round_trip_response(&Response::Scores { scores: vec![0.25, -1.5, 0.0] });
        round_trip_response(&Response::ShuttingDown);
        round_trip_response(&Response::Error { message: "no such model".into() });
    }

    #[test]
    fn lines_lead_with_version_and_type() {
        assert!(demo_submit().to_line().starts_with("{\"v\":1,\"type\":\"submit_campaign\","));
        assert!(Request::Shutdown.to_line().starts_with("{\"v\":1,\"type\":\"shutdown\""));
        assert!(Response::ShuttingDown.to_line().starts_with("{\"v\":1,\"type\":\"shutting_down\""));
    }

    #[test]
    fn unknown_fields_are_tolerated() {
        let line = Request::Status { campaign: "c".into() }.to_line();
        let extended = line.replacen('{', "{\"future_field\":[1,2,3],", 1);
        let parsed = Request::parse_line(&extended).expect("unknown fields must be ignored");
        assert!(matches!(parsed, Request::Status { campaign } if campaign == "c"));
    }

    #[test]
    fn unknown_version_is_a_version_error_not_corruption() {
        let newer = "{\"v\":99,\"type\":\"status\",\"campaign\":\"c\",\"shape\":\"changed\"}";
        assert_eq!(Request::parse_line(newer), Err(WireError::Version { got: 99 }));
        assert_eq!(Response::parse_line(newer), Err(WireError::Version { got: 99 }));
        let missing = "{\"type\":\"status\",\"campaign\":\"c\"}";
        assert!(matches!(Request::parse_line(missing), Err(WireError::Invalid(_))));
    }

    #[test]
    fn truncated_and_malformed_lines_are_rejected() {
        let line = demo_submit().to_line();
        for cut in [1, line.len() / 2, line.len() - 1] {
            assert!(
                matches!(Request::parse_line(&line[..cut]), Err(WireError::Malformed(_))),
                "truncation at {cut} must be malformed"
            );
        }
        assert!(matches!(Request::parse_line(""), Err(WireError::Malformed(_))));
        assert!(matches!(Request::parse_line("not json"), Err(WireError::Malformed(_))));
        assert!(matches!(Request::parse_line("[1,2]"), Err(WireError::Invalid(_))));
        assert!(matches!(
            Request::parse_line("{\"v\":1,\"type\":\"no_such_request\"}"),
            Err(WireError::Invalid(_))
        ));
    }

    /// Strategy for a workload the wire can carry.
    fn arb_workload() -> impl Strategy<Value = Workload> {
        (1u64..4, 1u64..9, 1u64..9, 1u64..9)
            .prop_map(|(b, m, n, k)| Workload::matmul(b, m * 32, n * 32, k * 32))
    }

    /// Short lowercase identifiers (tenant/campaign/model names). The
    /// alphabet includes `-` so parsed names exercise the same shapes the
    /// daemon generates.
    fn arb_name() -> impl Strategy<Value = String> {
        proptest::collection::vec(0usize..27, 1..12).prop_map(|indices| {
            indices
                .into_iter()
                .enumerate()
                .map(|(pos, i)| if i == 26 && pos > 0 { '-' } else { (b'a' + (i % 26) as u8) as char })
                .collect()
        })
    }

    fn arb_opt_name() -> impl Strategy<Value = Option<String>> {
        prop_oneof![Just(None), arb_name().prop_map(Some)]
    }

    fn arb_request() -> impl Strategy<Value = Request> {
        prop_oneof![
            (
                arb_name(),
                proptest::collection::vec((arb_workload(), 1u64..5), 1..4),
                0u64..u64::MAX,
                arb_opt_name(),
            )
                .prop_map(|(tenant, workloads, seed, model)| Request::SubmitCampaign {
                    tenant,
                    spec: GpuSpec::t4(),
                    workloads,
                    config: TunerConfig { seed, ..TunerConfig::quick() },
                    model,
                }),
            arb_name().prop_map(|campaign| Request::Status { campaign }),
            arb_name().prop_map(|campaign| Request::Cancel { campaign }),
            (arb_name(), proptest::collection::vec(arb_workload(), 1..4)).prop_map(
                |(model, wls)| Request::PredictOnly {
                    model,
                    programs: wls.iter().map(Program::fallback).collect(),
                }
            ),
            Just(Request::Shutdown),
        ]
    }

    fn arb_response() -> impl Strategy<Value = Response> {
        let opt_latency = || prop_oneof![Just(None), (1e-6f64..10.0).prop_map(Some)];
        prop_oneof![
            arb_name().prop_map(|campaign| Response::Submitted { campaign }),
            (arb_name(), arb_name(), opt_latency(), arb_opt_name()).prop_map(
                |(campaign, state, best_latency_s, result)| Response::Status {
                    campaign,
                    state,
                    best_latency_s,
                    result,
                }
            ),
            arb_name().prop_map(|campaign| Response::Cancelled { campaign }),
            proptest::collection::vec(-100.0f32..100.0, 0..8)
                .prop_map(|scores| Response::Scores { scores }),
            Just(Response::ShuttingDown),
            arb_name().prop_map(|message| Response::Error { message }),
        ]
    }

    proptest! {
        /// serialize → parse ≡ identity, and re-serialization is
        /// byte-stable (the field-order contract).
        #[test]
        fn request_round_trip_is_identity(req in arb_request()) {
            round_trip_request(&req);
        }

        #[test]
        fn response_round_trip_is_identity(resp in arb_response()) {
            round_trip_response(&resp);
        }

        /// Any prefix truncation of a valid line must fail loudly as
        /// malformed (or, for the degenerate full-length "prefix", parse
        /// back to the same bytes) — never parse to a different message.
        #[test]
        fn truncation_never_parses_to_a_different_message(
            req in arb_request(),
            frac in 0.0f64..1.0,
        ) {
            let line = req.to_line();
            let cut = ((line.len() as f64) * frac) as usize;
            if cut < line.len() {
                prop_assert!(Request::parse_line(&line[..cut]).is_err());
            }
        }
    }
}
