//! The JSON codec contract under every durable and wire artifact.
//!
//! `vendor/serde_json` renders and parses checkpoints, store lines,
//! manifests, results and wire lines. Four properties are pinned here:
//!
//! * **round trip** — `from_str(to_string(s)) == s` for arbitrary Unicode,
//!   and every escape JSON allows (`\/`, `\b`, `\f`, `\uXXXX`, surrogate
//!   pairs) decodes to the character it names;
//! * **writer byte-identity** — real artifacts render to exactly the bytes
//!   in `tests/fixtures/codec/`, which were generated by the codec as it
//!   stood before it was made linear-time (commit `d42cf6b`); the
//!   checkpoint pair was re-derived when checkpoints went to version 4
//!   (tensor data as hex bit strings), and decoding the version-3 fixture,
//!   restamping it 4 and re-rendering it reproduced the new one byte for
//!   byte;
//! * **linear time** — a multi-megabyte document of short strings parses
//!   in well under the bound even unoptimised (the old per-character
//!   re-validation needed hours for it);
//! * **hostile input** — nesting is capped with an error, not a stack
//!   overflow.
//!
//! The fixtures pin the *writer*, so they are regenerated only when the
//! data model of an artifact changes on purpose (a new checkpoint field, a
//! new wire field) — never to make a codec change pass:
//!
//! ```text
//! cargo test --release --test codec -- --ignored regenerate_fixtures
//! ```

use pruner::cost::ModelKind;
use pruner::gpu::{FaultKind, GpuSpec};
use pruner::ir::Workload;
use pruner::serve::Request;
use pruner::sketch::Program;
use pruner::store::{RecordOutcome, TuningRecord};
use pruner::tuner::{Checkpoint, TunerConfig, TuningCurve};
use pruner::Pruner;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Content, Deserialize, Serialize};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures/codec")).join(name)
}

// ------------------------------------------------------------- artifacts

/// A real campaign parked at the start of round 10: a trained model with
/// its Adam moments, ten rounds of curve, the measurement cache, the
/// elite pools and the RNG offset.
fn round10_checkpoint() -> Checkpoint {
    let config = TunerConfig {
        rounds: 12,
        measure_per_round: 3,
        space_size: 32,
        target_pool: 96,
        ..TunerConfig::default()
    };
    let mut tuner = Pruner::builder(GpuSpec::t4())
        .workload(Workload::matmul(1, 256, 256, 256))
        .config(config)
        .model(ModelKind::Ansor)
        .seed(11)
        .threads(1)
        .build()
        .into_tuner();
    tuner.start();
    while tuner.phase().round() < 10 {
        tuner.step();
    }
    tuner.park()
}

fn sampled_programs(workload: &Workload, n: usize, seed: u64) -> Vec<Program> {
    let limits = GpuSpec::t4().limits();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n).map(|_| Program::sample(workload, &limits, &mut rng)).collect()
}

/// One success and one failure store line, newline-terminated as
/// `Store::flush` writes them.
fn record_lines() -> String {
    let spec = GpuSpec::t4();
    let programs = sampled_programs(&Workload::conv2d(1, 64, 56, 56, 64, 3, 1, 1), 2, 7);
    let outcomes = [
        RecordOutcome::Success { latency_s: 1.234_567_890_123e-4, variance: 2.5e-13 },
        RecordOutcome::Failure { kind: FaultKind::Timeout, attempts: 3 },
    ];
    let mut out = String::new();
    for (program, outcome) in programs.into_iter().zip(outcomes) {
        let record = TuningRecord::new(&spec, program, outcome);
        out.push_str(&serde_json::to_string(&record).expect("records serialize"));
        out.push('\n');
    }
    out
}

fn predict_only_line() -> String {
    Request::PredictOnly {
        model: "pacm".to_string(),
        programs: sampled_programs(&Workload::matmul(1, 256, 256, 512), 64, 64),
    }
    .to_line()
}

/// 64-bit FNV-1a. The pretty checkpoint is 0.25 MB of mostly
/// indentation, so the repository carries its length and digest instead
/// of its bytes; the compact rendering is kept whole.
fn digest(text: &str) -> String {
    let hash = text
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325_u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3));
    format!("{} bytes, fnv1a64 {hash:016x}\n", text.len())
}

fn artifacts() -> Vec<(&'static str, String)> {
    let ckpt = round10_checkpoint();
    let pretty = serde_json::to_string_pretty(&ckpt).expect("checkpoints serialize");
    vec![
        ("checkpoint_round10.json", serde_json::to_string(&ckpt).expect("checkpoints serialize")),
        ("checkpoint_round10.pretty.digest", digest(&pretty)),
        ("record_lines.jsonl", record_lines()),
        ("predict_only_64.json", predict_only_line()),
    ]
}

#[test]
#[ignore = "rewrites the writer fixtures; see the module docs for when that is legitimate"]
fn regenerate_fixtures() {
    std::fs::create_dir_all(fixture("")).expect("fixture dir");
    for (name, bytes) in artifacts() {
        std::fs::write(fixture(name), bytes).expect("fixture writes");
    }
}

// ------------------------------------------------- writer byte-identity

fn first_difference(a: &str, b: &str) -> usize {
    a.bytes().zip(b.bytes()).position(|(x, y)| x != y).unwrap_or(a.len().min(b.len()))
}

#[test]
fn writer_output_is_byte_identical_to_the_parent_commits() {
    for (name, actual) in artifacts() {
        let expected = std::fs::read_to_string(fixture(name))
            .unwrap_or_else(|e| panic!("missing fixture {name}: {e}"));
        assert!(
            actual == expected,
            "{name}: rendered {} bytes, fixture has {}; first difference at byte {}",
            actual.len(),
            expected.len(),
            first_difference(&actual, &expected)
        );
    }
}

#[test]
fn fixtures_parse_and_rerender_to_themselves() {
    // Reader and writer together: parsing a fixture and rendering the
    // value again reproduces the file, compact and pretty.
    let compact = std::fs::read_to_string(fixture("checkpoint_round10.json")).unwrap();
    let pretty_digest =
        std::fs::read_to_string(fixture("checkpoint_round10.pretty.digest")).unwrap();
    let from_compact: Checkpoint = serde_json::from_str(&compact).expect("compact parses");
    let pretty = serde_json::to_string_pretty(&from_compact).unwrap();
    assert_eq!(digest(&pretty), pretty_digest);
    let from_pretty: Checkpoint = serde_json::from_str(&pretty).expect("pretty parses");
    assert!(serde_json::to_string(&from_pretty).unwrap() == compact);

    for line in std::fs::read_to_string(fixture("record_lines.jsonl")).unwrap().lines() {
        let record: TuningRecord = serde_json::from_str(line).expect("record line parses");
        assert_eq!(serde_json::to_string(&record).unwrap(), line);
    }

    let line = std::fs::read_to_string(fixture("predict_only_64.json")).unwrap();
    let request = Request::parse_line(&line).expect("wire line parses");
    assert!(matches!(&request, Request::PredictOnly { programs, .. } if programs.len() == 64));
    assert_eq!(request.to_line(), line);
}

/// Mirrors `tests/golden.rs`'s record so the golden file can be re-rendered
/// without running the campaign.
#[derive(Serialize, Deserialize)]
struct GoldenRecord {
    curve: TuningCurve,
    best_latency_s: f64,
    trials: u64,
}

#[test]
fn golden_curve_file_rerenders_to_its_own_bytes() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/quick_matmul_t4.json");
    let golden = std::fs::read_to_string(path).expect("golden file");
    let record: GoldenRecord = serde_json::from_str(&golden).expect("golden parses");
    assert_eq!(serde_json::to_string_pretty(&record).unwrap(), golden.trim_end());
}

// -------------------------------------------------------------- round trip

/// Code points weighted towards what breaks string codecs: controls,
/// quote and backslash, the last ASCII and first two-byte code points,
/// the BMP either side of the surrogate gap, and astral planes.
fn code_point() -> impl Strategy<Value = char> {
    prop_oneof![
        0x00u32..0x20,
        0x20u32..0x7f,
        Just(0x22u32),
        Just(0x5cu32),
        Just(0x2fu32),
        0x7fu32..0x100,
        0x100u32..0x800,
        0x800u32..0xd800,
        0xe000u32..0x1_0000,
        0x1_0000u32..0x11_0000,
    ]
    .prop_map(|code| char::from_u32(code).expect("ranges exclude the surrogate gap"))
}

fn unicode_string() -> impl Strategy<Value = String> {
    prop::collection::vec(code_point(), 0..48).prop_map(|chars| chars.into_iter().collect())
}

/// `s` as a JSON literal with *every* character `\u`-escaped, astral ones
/// as surrogate pairs — the spelling other JSON writers may send us.
fn fully_escaped(s: &str) -> String {
    let mut out = String::from("\"");
    for unit in s.encode_utf16() {
        out.push_str(&format!("\\u{unit:04X}"));
    }
    out.push('"');
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn strings_round_trip(s in unicode_string()) {
        let text = serde_json::to_string(&s).unwrap();
        prop_assert_eq!(serde_json::from_str::<String>(&text).unwrap(), s.clone());
        // As a map key and inside pretty output too.
        let map = std::collections::BTreeMap::from([(s.clone(), vec![s.clone()])]);
        let pretty = serde_json::to_string_pretty(&map).unwrap();
        prop_assert_eq!(
            serde_json::from_str::<std::collections::BTreeMap<String, Vec<String>>>(&pretty)
                .unwrap(),
            map
        );
    }

    #[test]
    fn unicode_escapes_decode_to_the_characters_they_name(s in unicode_string()) {
        prop_assert_eq!(serde_json::from_str::<String>(&fully_escaped(&s)).unwrap(), s);
    }
}

#[test]
fn hand_escaped_inputs_decode() {
    let cases = [
        (r#""a\/b""#, "a/b"),
        (r#""\b\f\n\r\t""#, "\u{8}\u{c}\n\r\t"),
        (r#""\"\\""#, "\"\\"),
        (r#""caf\u00e9""#, "café"),
        (r#""\u00E9\u0000""#, "é\0"),
        (r#""\uD83D\uDE00""#, "😀"),
        (r#""x\ud83d\ude00y""#, "x😀y"),
        (r#""\uDBFF\uDFFF""#, "\u{10FFFF}"),
        ("\"raw \u{1F600} and é\"", "raw 😀 and é"),
    ];
    for (json, expected) in cases {
        assert_eq!(serde_json::from_str::<String>(json).unwrap(), expected, "{json}");
    }
}

#[test]
fn lone_surrogates_and_bad_escapes_are_errors() {
    for json in [
        r#""\uD83D""#,
        r#""\uD83Dx""#,
        r#""\uDE00""#,
        r#""\uD83DA""#,
        r#""\uD83D\uD83D""#,
        r#""\uD83D\u""#,
        r#""\u12""#,
        r#""\uZZZZ""#,
        r#""\q""#,
        r#""unterminated"#,
        r#""ends in backslash\"#,
    ] {
        assert!(serde_json::from_str::<String>(json).is_err(), "{json} must be rejected");
    }
}

// ----------------------------------------------------------- hostile input

#[test]
fn nesting_is_capped_with_an_error_not_a_stack_overflow() {
    let arrays = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    let objects = |depth: usize| format!("{}0{}", "{\"k\":".repeat(depth), "}".repeat(depth));
    let cap = serde_json::MAX_DEPTH;
    assert!(serde_json::parse_content(&arrays(cap)).is_ok());
    assert!(serde_json::parse_content(&objects(cap)).is_ok());
    assert!(serde_json::parse_content(&objects(cap + 1)).is_err());
    let err = serde_json::parse_content(&arrays(cap + 1)).unwrap_err();
    assert!(err.to_string().contains("nesting"), "{err}");

    // What a hostile peer can put on one socket line: no closers at all.
    let bomb = "[".repeat(1 << 20);
    assert!(serde_json::parse_content(&bomb).is_err());
    assert!(Request::parse_line(&bomb).is_err());
    let bomb = "{\"a\":".repeat(1 << 18);
    assert!(serde_json::parse_content(&bomb).is_err());
    // Depth is released on the way out: many shallow siblings are fine.
    let wide = format!("[{}[]]", "[[[]]],".repeat(10_000));
    assert!(serde_json::parse_content(&wide).is_ok());
}

// --------------------------------------------------------- complexity guard

#[test]
fn parsing_short_strings_is_linear_in_the_document() {
    // ≥ 4 MB, ≥ 100 k short strings, some multi-byte and some escaped.
    let mut doc = String::from("[");
    let mut strings = 0usize;
    while doc.len() < 4 << 20 || strings < 100_000 {
        if strings > 0 {
            doc.push(',');
        }
        doc.push_str(&format!(
            "{{\"workload_fp\":\"matmul_b1m{strings}\",\"note\":\"é😀\\n\\u00e9\",\"v\":{strings}}}"
        ));
        strings += 4;
    }
    doc.push(']');

    let started = Instant::now();
    let parsed = serde_json::parse_content(&doc).expect("document parses");
    let elapsed = started.elapsed();
    assert_eq!(parsed.as_seq().map(<[Content]>::len), Some(strings / 4));
    // Linear code takes a fraction of a second even unoptimised; the
    // per-character re-validation this guards against is quadratic in the
    // document and would need hours here.
    assert!(
        elapsed < Duration::from_secs(20),
        "parsing {} bytes took {elapsed:?}",
        doc.len()
    );
}
