//! End-to-end tests for the cross-hardware continual-learning fleet.
//!
//! The contract under test (see `docs/FLEET.md`):
//!
//! 1. a fleet run is **byte-identical at any thread count** — the
//!    serialized `FleetResult` of a 1-thread run equals a 4-thread run;
//! 2. a fleet **killed mid-roster and resumed** from its manifest
//!    converges to those same bytes;
//! 3. a **2-device fleet degenerates** to the plain pairwise MTL chain
//!    the tuner already implements, byte for byte, across seeds and
//!    momenta (property test);
//! 4. the shared store **never leaks measurements across device
//!    fingerprints** — device A's records must not preseed device B's
//!    measurement cache;
//! 5. every JSON example in `docs/FLEET.md` parses against the real
//!    types (the doc cannot drift from the code).

use proptest::prelude::*;
use pruner::gpu::GpuSpec;
use pruner::ir::Workload;
use pruner::store::Store;
use pruner::trace::Value;
use pruner::tuner::fleet::{pretrain_samples, FleetConfig};
use pruner::tuner::{pretrain_pacm, ModelSetup, Tuner, TunerConfig};
use pruner::{Fleet, FleetResult, FleetStatus};
use std::path::PathBuf;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pruner-fleet-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Small-but-real fleet config: multiple rounds per stage (so MTL rounds
/// actually fold), two workloads, deterministic seeds.
fn fleet_config(tag: &str, roster: Vec<GpuSpec>, threads: usize) -> FleetConfig {
    let mut cfg = FleetConfig::quick(roster, scratch_dir(tag));
    cfg.workloads = vec![
        (Workload::matmul(1, 128, 128, 128), 2),
        (Workload::conv2d(1, 8, 14, 14, 16, 3, 1, 1), 1),
    ];
    cfg.tuner = TunerConfig {
        rounds: 3,
        measure_per_round: 3,
        space_size: 24,
        target_pool: 48,
        train_epochs: 1,
        mtl_epochs: 1,
        threads,
        ..TunerConfig::quick()
    };
    cfg.pretrain_per_workload = 10;
    cfg.pretrain_epochs = 2;
    cfg.probes_per_workload = 8;
    cfg
}

fn run_to_json(cfg: FleetConfig) -> String {
    let result =
        Fleet::new(cfg).run().expect("fleet run").result.expect("roster completed");
    serde_json::to_string(&result).expect("serialize FleetResult")
}

#[test]
fn fleet_is_byte_identical_across_thread_counts() {
    let roster = vec![GpuSpec::k80(), GpuSpec::t4(), GpuSpec::a100()];
    let one = run_to_json(fleet_config("threads1", roster.clone(), 1));
    let four = run_to_json(fleet_config("threads4", roster, 4));
    assert_eq!(one, four, "fleet must be byte-identical at any thread count");
}

#[test]
fn fleet_kill_and_resume_mid_roster_is_byte_identical() {
    let roster = vec![GpuSpec::k80(), GpuSpec::t4(), GpuSpec::a100()];
    let uninterrupted = run_to_json(fleet_config("kr-full", roster.clone(), 2));

    // Kill after each possible stage boundary and resume to completion.
    for halt_at in 1..roster.len() {
        let mut cfg = fleet_config(&format!("kr-halt{halt_at}"), roster.clone(), 2);
        cfg.halt_after_stages = Some(halt_at);
        let parked = Fleet::new(cfg.clone()).run().expect("halted fleet run");
        assert_eq!(parked.status, FleetStatus::Parked);
        assert_eq!(parked.stages_done, halt_at);
        assert!(parked.result.is_none(), "a parked fleet has no final result");
        cfg.halt_after_stages = None;
        let resumed = run_to_json(cfg);
        assert_eq!(
            uninterrupted, resumed,
            "resume after stage {halt_at} must reproduce the uninterrupted bytes"
        );
    }
}

#[test]
fn fleet_with_shared_store_resumes_byte_identically() {
    // Same as above but with the shared record store attached — replay
    // plus fingerprint filtering must not break resume determinism.
    let mut full = fleet_config("store-full", vec![GpuSpec::k80(), GpuSpec::t4()], 2);
    full.store = Some(full.state_dir.join("records.jsonl"));
    let uninterrupted = run_to_json(full);

    let mut cfg = fleet_config("store-halt", vec![GpuSpec::k80(), GpuSpec::t4()], 2);
    cfg.store = Some(cfg.state_dir.join("records.jsonl"));
    cfg.halt_after_stages = Some(1);
    let parked = Fleet::new(cfg.clone()).run().expect("halted fleet run");
    assert_eq!(parked.status, FleetStatus::Parked);
    cfg.halt_after_stages = None;
    assert_eq!(
        uninterrupted,
        run_to_json(cfg),
        "store-backed resume must reproduce the uninterrupted bytes"
    );
}

/// Device A's store records must never preseed device B's measurement
/// cache: the fingerprints differ, so replay must filter every record.
#[test]
fn store_records_never_cross_device_fingerprints() {
    let dir = scratch_dir("isolation");
    let store_path = dir.join("records.jsonl");
    let config = TunerConfig {
        rounds: 2,
        measure_per_round: 3,
        space_size: 16,
        target_pool: 32,
        train_epochs: 1,
        threads: 1,
        ..TunerConfig::quick()
    };
    let wl = Workload::matmul(1, 128, 128, 128);

    // Campaign on device A fills the store.
    let mut a = Tuner::new(
        GpuSpec::k80(),
        config,
        ModelSetup::Fresh(pruner::cost::ModelKind::Pacm),
    );
    a.add_task(wl.clone(), 1);
    a.set_store(Store::open(&store_path).unwrap(), true);
    a.run();
    let recorded = Store::open(&store_path).unwrap().len();
    assert!(recorded > 0, "device A must have recorded measurements");

    // The store-level view: replaying for device B matches nothing.
    let store = Store::open(&store_path).unwrap();
    let workload_fps: std::collections::HashSet<String> =
        std::iter::once(wl.key()).collect();
    let replay = store.replay("sim", &GpuSpec::t4().fingerprint(), &workload_fps);
    assert!(replay.records.is_empty(), "no record may match a foreign fingerprint");
    assert_eq!(replay.spec_mismatches, recorded, "every record must be spec-filtered");

    // The campaign-level view: device B's warm start preseeds nothing,
    // device A's preseeds everything it recorded.
    let preseeded = |spec: GpuSpec| -> (u64, u64) {
        let trace = pruner::trace::TraceHandle::new();
        let mut t = Tuner::new(spec, config, ModelSetup::Fresh(pruner::cost::ModelKind::Pacm));
        t.add_task(wl.clone(), 1);
        t.set_store(Store::open(&store_path).unwrap(), true);
        t.set_recorder(Box::new(trace.clone()));
        t.run();
        let records = trace.records();
        let replay = records
            .iter()
            .find(|r| r.kind() == "store_replay")
            .expect("warm start emits store_replay");
        let get = |key: &str| replay.get(key).and_then(Value::as_u64).unwrap_or(0);
        (get("preseeded"), get("spec_mismatches"))
    };
    let (a_preseeded, a_mismatches) = preseeded(GpuSpec::k80());
    assert!(a_preseeded > 0, "device A must warm-start from its own records");
    assert_eq!(a_mismatches, 0, "device A's own records all match");
    // Everything in the store is still a device-A record here (the
    // control rerun appended more of them); B must filter every one.
    let a_total = Store::open(&store_path).unwrap().len() as u64;
    let (b_preseeded, b_mismatches) = preseeded(GpuSpec::t4());
    assert_eq!(b_preseeded, 0, "device B must not inherit device A's cache");
    assert_eq!(b_mismatches, a_total, "device B must filter every A record");
}

/// Every fenced JSON example in `docs/FLEET.md` must parse against the
/// real types, in order: the roster (`Vec<GpuSpec>`), the device summary
/// (`Vec<FleetDeviceSummary>`), and the transfer report
/// (`FleetTransferReport`). Editing the doc or the types out of sync
/// fails this test.
#[test]
fn fleet_doc_examples_parse_and_roundtrip() {
    let doc = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/FLEET.md"));
    let fences: Vec<&str> = doc
        .split("```json\n")
        .skip(1)
        .map(|chunk| chunk.split("```").next().expect("closed fence"))
        .collect();
    assert_eq!(fences.len(), 3, "FLEET.md must keep its three worked JSON examples");

    let roster: Vec<GpuSpec> = serde_json::from_str(fences[0])
        .expect("example 1 must parse as Vec<GpuSpec>");
    assert!(!roster.is_empty());
    let devices: Vec<pruner::tuner::FleetDeviceSummary> = serde_json::from_str(fences[1])
        .expect("example 2 must parse as Vec<FleetDeviceSummary>");
    assert!(!devices.is_empty());
    let report: pruner::tuner::FleetTransferReport = serde_json::from_str(fences[2])
        .expect("example 3 must parse as FleetTransferReport");
    assert_eq!(report.probe_scores.len(), devices.len());

    // Round-trip: re-serializing the parsed values must preserve every
    // field (serde equality through a second parse).
    let devices2: Vec<pruner::tuner::FleetDeviceSummary> =
        serde_json::from_str(&serde_json::to_string(&devices).unwrap()).unwrap();
    assert_eq!(devices, devices2);
    let report2: pruner::tuner::FleetTransferReport =
        serde_json::from_str(&serde_json::to_string(&report).unwrap()).unwrap();
    assert_eq!(report, report2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Property: a 2-device fleet is a strict generalization of the
    /// pairwise MTL chain — for any seed and momentum, the per-stage
    /// results are byte-identical to pre-train → MTL-tune A → carry
    /// Siamese → MTL-tune B done by hand.
    #[test]
    fn two_device_fleet_degenerates_to_pairwise_mtl(
        seed in 0u64..1000,
        momentum_idx in 0usize..3,
    ) {
        let momentum = [0.9f32, 0.99, 1.0][momentum_idx];
        let mut cfg = fleet_config(
            &format!("degen-{seed}-{momentum}"),
            vec![GpuSpec::k80(), GpuSpec::t4()],
            2,
        );
        cfg.tuner.seed = seed;
        cfg.seed = seed;
        cfg.momentum = momentum;
        let fleet_result = Fleet::new(cfg.clone())
            .run()
            .expect("fleet run")
            .result
            .expect("completed");

        let pre = pretrain_samples(
            &cfg.roster[0],
            &cfg.workloads,
            cfg.pretrain_per_workload,
            cfg.seed,
        );
        let mut siamese = pretrain_pacm(&pre, cfg.pretrain_epochs, cfg.tuner.seed);
        let mut chain = Vec::new();
        for spec in &cfg.roster {
            let mut tuner = Tuner::new(
                spec.clone(),
                cfg.tuner,
                ModelSetup::Mtl { pretrained: siamese.clone(), momentum: cfg.momentum },
            );
            for (wl, weight) in &cfg.workloads {
                tuner.add_task(wl.clone(), *weight);
            }
            chain.push(tuner.run());
            siamese = tuner.mtl().expect("MTL campaign").siamese().clone();
        }
        prop_assert_eq!(
            serde_json::to_string(&fleet_result.results).unwrap(),
            serde_json::to_string(&chain).unwrap(),
            "2-device fleet must match the manual MTL chain byte for byte"
        );
    }
}

/// The `FleetResult` written by `--output` must parse back losslessly —
/// the schema the CI smoke job checks.
#[test]
fn fleet_result_roundtrips_through_json() {
    let cfg = fleet_config("roundtrip", vec![GpuSpec::k80(), GpuSpec::t4()], 1);
    let result = Fleet::new(cfg).run().unwrap().result.unwrap();
    let json = serde_json::to_string(&result).unwrap();
    let parsed: FleetResult = serde_json::from_str(&json).unwrap();
    assert_eq!(json, serde_json::to_string(&parsed).unwrap());
}
