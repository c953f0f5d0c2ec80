//! Integration: crash-safe checkpointing and byte-identical resume.
//!
//! A campaign interrupted at round `k` (via `halt_after`, the test stand-in
//! for a crash) and resumed from its checkpoint must produce a result that
//! is byte-for-byte identical to the uninterrupted campaign — including the
//! tuning curve, the simulated-time ledger, every winning schedule, and all
//! fault/retry counters, at any thread count and with fault injection on.

use pruner::cost::{ModelKind, ModelSnapshot};
use pruner::gpu::{GpuSpec, Simulator};
use pruner::ir::Workload;
use pruner::nn::Module;
use pruner::tuner::{Checkpoint, Tuner, TunerConfig, TuningResult};
use pruner::Pruner;
use serde::Content;
use std::io::ErrorKind;
use std::path::PathBuf;
use std::sync::OnceLock;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pruner-ckpt-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn config(fault_rate: f64) -> TunerConfig {
    TunerConfig {
        rounds: 6,
        measure_per_round: 3,
        space_size: 32,
        target_pool: 96,
        fault_rate,
        checkpoint_every: 2,
        ..TunerConfig::default()
    }
}

fn builder(cfg: TunerConfig, threads: usize) -> pruner::PrunerBuilder {
    Pruner::builder(GpuSpec::t4())
        .workload(Workload::matmul(1, 256, 256, 256))
        .config(cfg)
        .model(ModelKind::Ansor)
        .seed(11)
        .threads(threads)
}

fn as_json(r: &TuningResult) -> String {
    serde_json::to_string(r).expect("result serializes")
}

#[test]
fn kill_and_resume_is_byte_identical() {
    let dir = scratch_dir("basic");
    let ckpt = dir.join("campaign.json");

    let full = builder(config(0.0), 1).build().tune();

    // "Crash" after round 4 (checkpoint cadence 2 → checkpoint at 4).
    let partial =
        builder(config(0.0), 1).checkpoint(&ckpt).halt_after(4).build().tune();
    assert!(partial.curve.points().len() < full.curve.points().len());
    assert!(ckpt.exists(), "halt must leave a checkpoint behind");

    let resumed = Pruner::resume(&ckpt).expect("checkpoint loads").tune();
    assert_eq!(as_json(&full), as_json(&resumed), "resume must be byte-identical");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn kill_and_resume_is_byte_identical_under_faults() {
    let dir = scratch_dir("faulty");
    let ckpt = dir.join("campaign.json");

    let full = builder(config(0.2), 1).build().tune();
    builder(config(0.2), 1).checkpoint(&ckpt).halt_after(2).build().tune();
    let resumed = Pruner::resume(&ckpt).expect("checkpoint loads").tune();
    assert_eq!(
        as_json(&full),
        as_json(&resumed),
        "fault counters, quarantine and retry accounting must survive resume"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_is_thread_count_invariant() {
    let dir = scratch_dir("threads");
    let ckpt = dir.join("campaign.json");

    let full_serial = builder(config(0.1), 1).build().tune();
    // Checkpoint written by a 4-thread run, resumed by a 1-thread run —
    // the checkpoint carries no trace of the pipeline width.
    builder(config(0.1), 4).checkpoint(&ckpt).halt_after(4).build().tune();
    let mut resumed_tuner = pruner::tuner::Tuner::<pruner::gpu::Simulator>::resume(&ckpt).expect("checkpoint loads");
    let resumed = resumed_tuner.run();
    assert_eq!(as_json(&full_serial), as_json(&resumed));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_file_is_replaced_atomically() {
    let dir = scratch_dir("atomic");
    let ckpt = dir.join("campaign.json");
    builder(config(0.0), 1).checkpoint(&ckpt).build().tune();
    assert!(ckpt.exists());
    let tmp = dir.join("campaign.json.tmp");
    assert!(!tmp.exists(), "temporary file must be renamed over the destination");
    // The final checkpoint on disk must itself be loadable and resumable
    // (it records the completed campaign's last checkpointed round).
    let _ = Pruner::resume(&ckpt).expect("final checkpoint loads").tune();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_from_missing_or_corrupt_file_fails_cleanly() {
    let dir = scratch_dir("corrupt");
    assert!(Pruner::resume(dir.join("nope.json")).is_err());
    let bad = dir.join("bad.json");
    std::fs::write(&bad, "{ not json").unwrap();
    let err = match Pruner::resume(&bad) {
        Err(e) => e,
        Ok(_) => panic!("corrupt checkpoint must not load"),
    };
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    std::fs::remove_dir_all(&dir).ok();
}

// ------------------------------------------------- tensor encoding (v4)

/// A PaCM campaign on one GEMM parked at the start of round 10: the
/// trained model with its Adam moments and ten rounds of measurements.
/// Built once per test binary.
fn pacm_round10() -> Checkpoint {
    static PARKED: OnceLock<Checkpoint> = OnceLock::new();
    PARKED
        .get_or_init(|| {
            let cfg = TunerConfig { rounds: 12, ..TunerConfig::quick() };
            let mut tuner = Pruner::builder(GpuSpec::t4())
                .workload(Workload::matmul(1, 512, 512, 512))
                .config(cfg)
                .model(ModelKind::Pacm)
                .seed(11)
                .threads(1)
                .build()
                .into_tuner();
            tuner.start();
            while tuner.phase().round() < 10 {
                tuner.step();
            }
            tuner.park()
        })
        .clone()
}

/// Calls `visit` with the `data` of every tensor (a map whose keys are
/// exactly `rows`, `cols`, `data`) in `tree`.
fn for_each_tensor(tree: &Content, visit: &mut impl FnMut(&Content)) {
    match tree {
        Content::Map(entries) => {
            let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
            if keys == ["rows", "cols", "data"] {
                visit(&entries[2].1);
            } else {
                entries.iter().for_each(|(_, v)| for_each_tensor(v, visit));
            }
        }
        Content::Seq(items) => items.iter().for_each(|v| for_each_tensor(v, visit)),
        _ => {}
    }
}

/// `text` with every tensor's hex `data` spelled the way a version-3
/// writer did: a JSON array of each `f32` widened to `f64`, shortest
/// round-trip, non-finite values as `null`.
fn with_decimal_tensors(text: &str) -> String {
    const KEY: &str = "\"data\":\"";
    let mut out = String::new();
    let mut rest = text;
    while let Some(at) = rest.find(KEY) {
        out.push_str(&rest[..at]);
        let hex_start = at + KEY.len();
        let hex_len = rest[hex_start..].find('"').expect("terminated string");
        let hex = &rest[hex_start..hex_start + hex_len];
        let values: Vec<String> = (0..hex.len() / 8)
            .map(|i| {
                let v = f32::from_bits(u32::from_str_radix(&hex[i * 8..i * 8 + 8], 16).unwrap());
                if v.is_finite() {
                    format!("{:?}", f64::from(v))
                } else {
                    "null".into()
                }
            })
            .collect();
        out.push_str(&format!("\"data\":[{}]", values.join(",")));
        rest = &rest[hex_start + hex_len + 1..];
    }
    out.push_str(rest);
    out
}

#[test]
fn parked_pacm_checkpoint_is_small_and_prints_no_weight_as_a_number() {
    let dir = scratch_dir("size");
    let path = dir.join("round10.json");
    pacm_round10().save(&path).expect("checkpoint saves");
    let text = std::fs::read_to_string(&path).unwrap();
    // Every weight, gradient and Adam moment of PaCM (~34 k values each)
    // at 8 bytes apiece; decimal printing made this 2.4 MB.
    assert!(text.len() <= 1_300_000, "round-10 PaCM checkpoint is {} bytes", text.len());
    let tree = serde_json::parse_content(&text).expect("checkpoint parses");
    let mut tensors = 0;
    for_each_tensor(&tree, &mut |data| {
        tensors += 1;
        assert!(matches!(data, Content::Str(_)), "a tensor rendered its data as {data:?}");
    });
    assert!(tensors >= 4 * 8, "found only {tensors} tensors");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn non_finite_weights_and_moments_survive_park_and_resume_bit_exact() {
    let dir = scratch_dir("nonfinite");
    let path = dir.join("diverged.json");
    let quiet_nan = f32::from_bits(0x7fc0_1234);
    let signalling_nan = f32::from_bits(0xff80_0001);
    let mut ckpt = pacm_round10();
    let ModelSnapshot::Pacm(model) = &mut ckpt.model else { panic!("a PaCM campaign") };
    for (i, param) in model.params_mut().into_iter().take(2).enumerate() {
        param.value.as_mut_slice()[i] = f32::INFINITY;
        param.value.as_mut_slice()[i + 1] = quiet_nan;
        param.m.as_mut_slice()[i] = f32::NEG_INFINITY;
        param.v.as_mut_slice()[i] = signalling_nan;
    }
    ckpt.save(&path).expect("checkpoint saves");
    let saved = std::fs::read_to_string(&path).unwrap();

    let resumed = Tuner::<Simulator>::resume(&path).expect("checkpoint loads").park();
    let ModelSnapshot::Pacm(mut back) = resumed.model.clone() else { panic!("still PaCM") };
    for (i, param) in back.params_mut().into_iter().take(2).enumerate() {
        assert_eq!(param.value.as_slice()[i].to_bits(), f32::INFINITY.to_bits());
        assert_eq!(param.value.as_slice()[i + 1].to_bits(), quiet_nan.to_bits());
        assert_eq!(param.m.as_slice()[i].to_bits(), f32::NEG_INFINITY.to_bits());
        assert_eq!(param.v.as_slice()[i].to_bits(), signalling_nan.to_bits());
    }
    assert!(serde_json::to_string(&resumed).unwrap() == saved, "re-parked checkpoint differs");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_tensor_data_fails_the_load_as_invalid_data() {
    let dir = scratch_dir("tensor-data");
    let text = serde_json::to_string(&pacm_round10()).unwrap();
    let start = text.find("\"data\":\"").expect("a tensor") + "\"data\":".len();
    let end = start + 1 + text[start + 1..].find('"').unwrap() + 1;
    let hex = &text[start + 1..end - 1];
    let cases = [
        ("one value short", format!("\"{}\"", &hex[8..]), "holds"),
        ("a ragged word", format!("\"{}\"", &hex[1..]), "not whole 8-digit words"),
        ("a non-hex digit", format!("\"g{}\"", &hex[1..]), "word 0 is not lowercase hex"),
        ("a short number array", "[1.0]".to_string(), "holds 1 values"),
    ];
    for (what, data, expected) in cases {
        let path = dir.join("bad.json");
        std::fs::write(&path, format!("{}{data}{}", &text[..start], &text[end..])).unwrap();
        let err = Checkpoint::load(&path).expect_err(what);
        assert_eq!(err.kind(), ErrorKind::InvalidData, "{what}: {err}");
        assert!(err.to_string().contains(expected), "{what}: {err}");
        assert!(Pruner::resume(&path).is_err(), "{what} must not resume");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn version_3_checkpoint_is_refused_as_a_version_mismatch() {
    let dir = scratch_dir("v3");
    let path = dir.join("v3.json");
    let current = serde_json::to_string(&pacm_round10()).unwrap();
    let stamp = format!("{{\"version\":{},", Checkpoint::VERSION);
    assert!(current.starts_with(&stamp));
    let v3 = with_decimal_tensors(&current).replacen(&stamp, "{\"version\":3,", 1);
    std::fs::write(&path, v3).unwrap();
    let err = Checkpoint::load(&path).expect_err("version 3 is not read");
    assert_eq!(err.kind(), ErrorKind::InvalidData);
    assert_eq!(err.to_string(), "checkpoint version 3 unsupported (expected 4)");
    std::fs::remove_dir_all(&dir).ok();
}
