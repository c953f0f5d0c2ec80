//! End-to-end chaos harness: kill-at-random-point soak, watchdog,
//! injected I/O faults, and deadline parking — all supervised.
//!
//! The contract under test is the strongest form of the repo's
//! determinism guarantee: a campaign killed at *any* state-machine step,
//! resumed under the [`Supervisor`], must reproduce the uninterrupted
//! campaign byte-for-byte (result JSON *and* store file), with every
//! fault surfacing as a typed [`CampaignFault`] and every restart visible
//! as `supervisor.*` trace records in the end-of-campaign report.
//!
//! The campaign seed honours `PRUNER_CHAOS_SEED` so CI can soak a seed
//! matrix without recompiling; the golden is recomputed per seed, so any
//! seed must pass.

use pruner::cost::ModelKind;
use pruner::durable::{IoFaultModel, IoFaults};
use pruner::gpu::{GpuSpec, Simulator, StallBackend, StallControl};
use pruner::ir::Workload;
use pruner::psa::PsaConfig;
use pruner::store::Store;
use pruner::trace::TraceHandle;
use pruner::tuner::{
    CampaignFault, CampaignOutcome, CampaignStatus, Checkpoint, ModelSetup, Supervisor,
    SupervisorConfig, Tuner, TunerConfig, TuningResult,
};
use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pruner-chaos-{}-{tag}", std::process::id()));
    fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Campaign seed for the soak; CI sweeps this through a matrix.
fn chaos_seed() -> u64 {
    std::env::var("PRUNER_CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(42)
}

fn chaos_config() -> TunerConfig {
    TunerConfig {
        rounds: 6,
        measure_per_round: 3,
        space_size: 32,
        target_pool: 96,
        fault_rate: 0.15,
        checkpoint_every: 2,
        seed: chaos_seed(),
        ..TunerConfig::default()
    }
}

fn workload() -> Workload {
    Workload::matmul(1, 256, 256, 256)
}

/// A fresh simulator-backed campaign, optionally with a record-only
/// store attached (record-only keeps it bit-identical to storeless).
fn fresh(store_path: Option<&Path>) -> Tuner {
    let mut t = Tuner::new(GpuSpec::t4(), chaos_config(), ModelSetup::Fresh(ModelKind::Pacm));
    t.add_task(workload(), 1);
    if let Some(path) = store_path {
        t.set_store(Store::open(path).expect("store opens"), false);
    }
    t
}

fn as_json(r: &TuningResult) -> String {
    serde_json::to_string(r).expect("result serializes")
}

/// The uninterrupted golden: result plus (when a store is attached) the
/// flushed store file contents.
fn golden_run(store_path: Option<&Path>) -> TuningResult {
    let mut t = fresh(store_path);
    let result = t.run();
    if let Some(store) = t.store() {
        store.flush().expect("golden store flushes");
    }
    result
}

/// Total state-machine steps in the uninterrupted campaign.
fn total_steps() -> usize {
    let mut t = fresh(None);
    t.start();
    let mut steps = 0;
    while t.step() == CampaignStatus::Running {
        steps += 1;
    }
    steps + 1
}

/// The seeded kill-at-random-point soak. Each kill point steps a fresh
/// campaign exactly `k` transitions, parks it to disk (the crash-safe
/// write every real kill path funnels through), drops it, and lets the
/// supervisor resume from the checkpoint. Both the result JSON and the
/// store file must come out byte-identical to the uninterrupted run.
#[test]
fn seeded_kill_points_resume_byte_identical_with_zero_record_loss() {
    let dir = scratch_dir("soak");
    let golden_store = dir.join("golden.jsonl");
    let golden = golden_run(Some(&golden_store));
    let golden_json = as_json(&golden);
    let golden_records = fs::read_to_string(&golden_store).expect("golden store readable");

    let steps = total_steps();
    assert!(steps > 20, "campaign must have enough steps to kill mid-round (got {steps})");
    // Nine kill points spread across the whole campaign: different
    // rounds, different state-machine stages.
    let kill_points: BTreeSet<usize> = (1..=9).map(|i| i * steps / 10).filter(|&k| k > 0).collect();
    assert!(kill_points.len() >= 8, "need at least 8 distinct kill points");

    let mut phases_hit: BTreeSet<&'static str> = BTreeSet::new();
    let mut rounds_hit: BTreeSet<usize> = BTreeSet::new();
    for &k in &kill_points {
        let store_path = dir.join(format!("k{k}.jsonl"));
        let ckpt = dir.join(format!("k{k}.ckpt.json"));

        // The victim: run k steps, park, "die".
        let mut victim = fresh(Some(&store_path));
        victim.start();
        for _ in 0..k {
            assert_eq!(victim.step(), CampaignStatus::Running, "kill point {k} inside campaign");
        }
        phases_hit.insert(victim.phase().label());
        if victim.phase().round() != usize::MAX {
            rounds_hit.insert(victim.phase().round());
        }
        victim.park_to(&ckpt).expect("park persists");
        drop(victim);

        // The supervisor picks the campaign back up from the checkpoint.
        let mut sup = Supervisor::new(SupervisorConfig {
            checkpoint: Some(ckpt.clone()),
            ..SupervisorConfig::default()
        });
        let run = sup.run(|loaded: Option<Checkpoint>| {
            let mut t = match loaded {
                Some(c) => Tuner::from_checkpoint_backend(c)?,
                None => Tuner::<Simulator>::resume(&ckpt)?,
            };
            t.set_checkpoint_path(&ckpt);
            t.set_store(Store::open(&store_path)?, false);
            Ok(t)
        });
        assert_eq!(run.outcome, CampaignOutcome::Completed, "kill point {k}");
        assert_eq!(run.restarts, 0, "kill point {k}: healthy resume needs no restart");
        assert!(run.faults.is_empty(), "kill point {k}: {:?}", run.faults);
        let result = run.result.expect("completed run carries a result");
        assert_eq!(as_json(&result), golden_json, "kill point {k}: result must be byte-identical");
        let records = fs::read_to_string(&store_path).expect("resumed store readable");
        assert_eq!(records, golden_records, "kill point {k}: zero store-record loss");
    }
    assert!(
        phases_hit.len() >= 3,
        "kill points must cover several state-machine stages, got {phases_hit:?}"
    );
    assert!(
        rounds_hit.len() >= 2,
        "kill points must cover several rounds, got {rounds_hit:?}"
    );
    fs::remove_dir_all(&dir).ok();
}

/// A measurement that hangs must be detected by the heartbeat watchdog
/// well before the hang resolves, restarted from the last cadence
/// checkpoint, and still finish byte-identical — with the whole episode
/// visible as typed `supervisor.*` records in the end-of-campaign report.
#[test]
fn watchdog_detects_stalled_measurement_and_recovers_byte_identical() {
    let dir = scratch_dir("stall");
    let ckpt = dir.join("stall.ckpt.json");
    let cfg = TunerConfig { checkpoint_every: 1, ..chaos_config() };
    let setup = || ModelSetup::Fresh(ModelKind::Pacm);

    // Golden through a *disarmed* stall backend (identical to the plain
    // simulator), probing the total number of measurement calls.
    let probe = StallControl::disarmed();
    let mut golden_tuner = Tuner::with_backend(
        GpuSpec::t4(),
        cfg,
        setup(),
        PsaConfig::default(),
        StallBackend::new(Simulator::new(GpuSpec::t4()), probe.clone()),
    );
    golden_tuner.add_task(workload(), 1);
    let golden = golden_tuner.run();
    let calls = probe.calls();
    assert!(calls > 4, "campaign must measure enough to stall mid-flight (got {calls})");

    // Armed run: one measurement two-thirds in hangs for two minutes —
    // far beyond the watchdog budget, far beyond what the test may take.
    let armed = StallControl::new(2 * calls / 3, Duration::from_secs(120));
    // The watchdog budget must sit above any *legitimate* step (debug
    // builds train slowly) and far below the injected hang.
    let mut sup = Supervisor::new(SupervisorConfig {
        watchdog_timeout_s: 5.0,
        poll_interval_s: 0.05,
        backoff_base_s: 0.01,
        checkpoint: Some(ckpt.clone()),
        seed: chaos_seed(),
        ..SupervisorConfig::default()
    });
    let trace = TraceHandle::new();
    sup.set_recorder(Box::new(trace.clone()));
    let started = Instant::now();
    let run = sup.run({
        let (armed, ckpt, trace) = (armed.clone(), ckpt.clone(), trace.clone());
        move |loaded: Option<Checkpoint>| {
            let mut t = match loaded {
                // Restoring through the checkpoint rebuilds the stall
                // backend *disarmed* — the hang was transient.
                Some(c) => Tuner::<StallBackend<Simulator>>::from_checkpoint_backend(c)?,
                None => {
                    let mut t = Tuner::with_backend(
                        GpuSpec::t4(),
                        cfg,
                        setup(),
                        PsaConfig::default(),
                        StallBackend::new(Simulator::new(GpuSpec::t4()), armed.clone()),
                    );
                    t.add_task(workload(), 1);
                    t
                }
            };
            t.set_checkpoint_path(&ckpt);
            t.set_recorder(Box::new(trace.clone()));
            Ok(t)
        }
    });
    let elapsed = started.elapsed();

    assert!(armed.fired(), "the stall must actually have fired");
    assert!(
        elapsed < Duration::from_secs(60),
        "watchdog must cut the 120 s hang short (took {elapsed:?})"
    );
    assert_eq!(run.outcome, CampaignOutcome::Completed);
    assert_eq!(run.restarts, 1, "one stall, one restart");
    assert!(
        matches!(run.faults.as_slice(), [CampaignFault::Stalled { .. }]),
        "fault must be typed Stalled: {:?}",
        run.faults
    );
    assert_eq!(
        as_json(&run.result.expect("completed")),
        as_json(&golden),
        "recovery from a stall must be byte-identical"
    );

    // The episode is visible in the trace and in the report.
    let jsonl = trace.to_jsonl();
    assert!(jsonl.contains("\"type\":\"supervisor.fault\""), "typed fault record");
    assert!(jsonl.contains("\"fault\":\"stalled\""), "fault labelled stalled");
    assert!(jsonl.contains("\"type\":\"supervisor.restart\""), "restart record");
    let report = trace.report();
    let activity = report.supervisor.clone().expect("supervised campaign reports activity");
    assert_eq!(activity.restarts, 1);
    assert_eq!(activity.outcome, "completed");
    assert_eq!(activity.faults.get("stalled"), Some(&1));
    assert!(!activity.quarantined);
    assert!(report.render().contains("--- supervisor ---"));
    fs::remove_dir_all(&dir).ok();
}

/// An injected checkpoint-write failure surfaces as a typed `Io` fault,
/// the supervisor restarts, and the campaign still finishes
/// byte-identical with a loadable final checkpoint.
#[test]
fn checkpoint_write_fault_restarts_and_recovers_byte_identical() {
    let dir = scratch_dir("ckpt-fault");
    let ckpt = dir.join("campaign.ckpt.json");
    let golden = golden_run(None);

    // Every checkpoint write fails on the first attempt; the restarted
    // attempt writes cleanly.
    let model = IoFaultModel { seed: chaos_seed(), write_fail_p: 1.0, torn_tail_p: 0.0, rename_fail_p: 0.0 };
    let mut sup = Supervisor::new(SupervisorConfig {
        backoff_base_s: 0.01,
        checkpoint: Some(ckpt.clone()),
        seed: chaos_seed(),
        ..SupervisorConfig::default()
    });
    let mut attempts = 0u32;
    let run = sup.run(|loaded: Option<Checkpoint>| {
        attempts += 1;
        let mut t = match loaded {
            Some(c) => Tuner::from_checkpoint_backend(c)?,
            None => fresh(None),
        };
        t.set_checkpoint_path(&ckpt);
        if attempts == 1 {
            t.set_checkpoint_io_faults(Some(IoFaults::new(model)));
        }
        Ok(t)
    });
    assert_eq!(attempts, 2);
    assert_eq!(run.outcome, CampaignOutcome::Completed);
    assert_eq!(run.restarts, 1);
    assert!(
        matches!(run.faults.as_slice(), [CampaignFault::Io { message }] if message.contains("checkpoint write failed")),
        "fault must be typed Io naming the checkpoint: {:?}",
        run.faults
    );
    assert_eq!(as_json(&run.result.expect("completed")), as_json(&golden));
    // The clean attempt's cadence checkpoints landed and stayed loadable.
    Checkpoint::load(&ckpt).expect("final checkpoint loads");
    fs::remove_dir_all(&dir).ok();
}

/// An injected *store* flush failure also restarts cleanly — and because
/// the store is flushed before the checkpoint is saved, the restart
/// re-measures (and re-records) the interval, losing zero records.
#[test]
fn store_write_fault_restarts_with_zero_record_loss() {
    let dir = scratch_dir("store-fault");
    let ckpt = dir.join("campaign.ckpt.json");
    let store_path = dir.join("records.jsonl");
    let golden_store = dir.join("golden.jsonl");
    let golden = golden_run(Some(&golden_store));

    let model = IoFaultModel { seed: chaos_seed(), write_fail_p: 1.0, torn_tail_p: 0.0, rename_fail_p: 0.0 };
    let mut sup = Supervisor::new(SupervisorConfig {
        backoff_base_s: 0.01,
        checkpoint: Some(ckpt.clone()),
        seed: chaos_seed(),
        ..SupervisorConfig::default()
    });
    let mut attempts = 0u32;
    let run = sup.run(|loaded: Option<Checkpoint>| {
        attempts += 1;
        let mut t = match loaded {
            Some(c) => Tuner::from_checkpoint_backend(c)?,
            None => fresh(None),
        };
        t.set_checkpoint_path(&ckpt);
        let mut store = Store::open(&store_path)?;
        if attempts == 1 {
            store.set_io_faults(Some(IoFaults::new(model)));
        }
        t.set_store(store, false);
        Ok(t)
    });
    assert_eq!(attempts, 2);
    assert_eq!(run.outcome, CampaignOutcome::Completed);
    assert_eq!(run.restarts, 1);
    assert!(
        matches!(run.faults.as_slice(), [CampaignFault::Io { message }] if message.contains("store write failed")),
        "fault must be typed Io naming the store: {:?}",
        run.faults
    );
    assert_eq!(as_json(&run.result.expect("completed")), as_json(&golden));
    assert_eq!(
        fs::read_to_string(&store_path).expect("store readable"),
        fs::read_to_string(&golden_store).expect("golden store readable"),
        "store-flush fault must not lose records"
    );
    fs::remove_dir_all(&dir).ok();
}

/// A simulated-time budget parks the campaign mid-flight with a live
/// snapshot; resuming the parked checkpoint finishes byte-identical to a
/// campaign that never stopped.
#[test]
fn sim_deadline_parks_and_parked_checkpoint_resumes_byte_identical() {
    let dir = scratch_dir("sim-deadline");
    let ckpt = dir.join("parked.ckpt.json");
    let golden = golden_run(None);
    let budget = golden.stats.total_s() / 2.0;
    assert!(budget > 0.0);

    let mut sup = Supervisor::new(SupervisorConfig {
        sim_deadline_s: Some(budget),
        checkpoint: Some(ckpt.clone()),
        seed: chaos_seed(),
        ..SupervisorConfig::default()
    });
    let run = sup.run(|loaded: Option<Checkpoint>| {
        let mut t = match loaded {
            Some(c) => Tuner::from_checkpoint_backend(c)?,
            None => fresh(None),
        };
        t.set_checkpoint_path(&ckpt);
        Ok(t)
    });
    assert_eq!(run.outcome, CampaignOutcome::SimDeadlineExceeded);
    assert_eq!(run.restarts, 0);
    let parked = run.result.expect("a parked campaign reports its snapshot");
    assert!(parked.stats.total_s() >= budget, "parked at or past the budget");
    assert!(parked.stats.total_s() < golden.stats.total_s(), "parked before the end");
    assert!(ckpt.exists(), "parking leaves a resumable checkpoint");

    let resumed = Tuner::<Simulator>::resume(&ckpt).expect("parked checkpoint loads").run();
    assert_eq!(
        as_json(&resumed),
        as_json(&golden),
        "resuming the parked campaign must complete byte-identically"
    );
    fs::remove_dir_all(&dir).ok();
}
