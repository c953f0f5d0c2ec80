//! Integration: crash-safe checkpointing and byte-identical resume.
//!
//! A campaign interrupted at round `k` (via `halt_after`, the test stand-in
//! for a crash) and resumed from its checkpoint must produce a result that
//! is byte-for-byte identical to the uninterrupted campaign — including the
//! tuning curve, the simulated-time ledger, every winning schedule, and all
//! fault/retry counters, at any thread count and with fault injection on.

use pruner::cost::ModelKind;
use pruner::gpu::GpuSpec;
use pruner::ir::Workload;
use pruner::tuner::{TunerConfig, TuningResult};
use pruner::Pruner;
use std::path::PathBuf;

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
