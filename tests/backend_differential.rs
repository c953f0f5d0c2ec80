//! Integration: the simulator-vs-reality differential harness.
//!
//! The `Backend` trait made the measurement meter swappable; this suite
//! pins down both sides of that swap:
//!
//! * the **sim** path through the generic plumbing is byte-identical to
//!   the pre-trait golden campaign (`tests/golden/quick_matmul_t4.json`),
//!   and its trace jitter stays confined to `host_`-prefixed fields;
//! * the **cpu** path (`pruner-exec`) completes real campaigns end to
//!   end — store recording, checkpoint/resume, backend tagging — and the
//!   simulator's cost ordering agrees with measured wall time across a
//!   GEMM size sweep (rank correlation floor).
//!
//! The deep schedule-level fidelity study (per-workload Spearman/Kendall/
//! top-k over sampled candidates) lives in `benches/bench6.rs`; see
//! `docs/FIDELITY.md`.

mod common;

use common::best_of;
use pruner::exec::{stats, CpuExec, CpuExecConfig, TimerConfig};
use pruner::gpu::{Backend, GpuSpec, Simulator};
use pruner::ir::Workload;
use pruner::trace::{mask_host_fields, TraceHandle};
use pruner::tuner::{Tuner, TunerConfig};
use pruner::Pruner;
use serde::Serialize;

const GOLDEN_PATH: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/quick_matmul_t4.json");

/// Mirrors the golden record layout of `tests/golden.rs`.
#[derive(Serialize)]
struct GoldenRecord {
    curve: pruner::tuner::TuningCurve,
    best_latency_s: f64,
    trials: u64,
}

/// A fast executor config for smoke campaigns: tiny timing windows, two
/// threads (CI runners are share-everything boxes).
fn smoke_exec_config() -> CpuExecConfig {
    CpuExecConfig {
        threads: 2,
        timer: TimerConfig { samples: 2, min_window_s: 1e-5, ..TimerConfig::default() },
    }
}

/// The T4 executor every cpu campaign below measures on.
fn smoke_exec() -> CpuExec {
    CpuExec::with_config(GpuSpec::t4(), smoke_exec_config())
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pruner-backend-diff-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// The sim campaign through the backend-generic plumbing must reproduce
/// the golden curve written before the `Backend` trait existed, byte for
/// byte. (The `golden` suite guards the same file; this copy documents
/// that the *trait refactor specifically* is invisible to the sim path.)
#[test]
fn sim_campaign_is_byte_identical_to_pre_trait_golden() {
    let result = Pruner::builder(GpuSpec::t4())
        .workload(Workload::matmul(1, 512, 512, 512))
        .config(TunerConfig::quick())
        .seed(42)
        .build()
        .tune();
    let record = GoldenRecord {
        best_latency_s: result.best_latency_s,
        trials: result.stats.trials,
        curve: result.curve,
    };
    let actual = serde_json::to_string_pretty(&record).expect("record serializes");
    let expected = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file from the pre-trait tuner must exist");
    assert_eq!(
        actual.trim(),
        expected.trim(),
        "the Backend-trait refactor changed the simulator campaign"
    );
}

/// Two identical traced sim campaigns may differ only in `host_*` fields:
/// the generic measurer must not have introduced any other
/// nondeterministic trace value.
#[test]
fn sim_trace_jitter_is_confined_to_host_fields() {
    let run = || {
        let trace = TraceHandle::new();
        Pruner::builder(GpuSpec::t4())
            .workload(Workload::matmul(1, 256, 256, 256))
            .config(TunerConfig { rounds: 3, ..TunerConfig::quick() })
            .seed(11)
            .recorder(Box::new(trace.clone()))
            .build()
            .tune();
        trace.to_jsonl()
    };
    let (a, b) = (run(), run());
    assert!(!a.is_empty(), "campaign must emit trace events");
    assert_eq!(mask_host_fields(&a), mask_host_fields(&b));
}

/// A tiny CpuExec campaign must complete, improve monotonically, and tag
/// every store record with the `cpu` backend.
#[test]
fn cpu_smoke_campaign_completes_and_records_tagged_verdicts() {
    let dir = tmp_dir("store");
    let store_path = dir.join("records.jsonl");
    let result = Pruner::builder(GpuSpec::t4())
        .workload(Workload::matmul(1, 48, 48, 48))
        .config(TunerConfig { rounds: 2, ..TunerConfig::quick() })
        .seed(21)
        .store(&store_path)
        .build_with(smoke_exec())
        .tune();

    assert!(result.best_latency_s > 0.0);
    let lats: Vec<f64> = result.curve.points().iter().map(|p| p.best_latency_s).collect();
    assert!(lats.windows(2).all(|w| w[1] <= w[0] + 1e-12), "curve must stay monotone");

    // The store holds one verdict per program — quarantines included: on a
    // loaded host the real timings of this backend can starve past their
    // retry budget, and such a program is recorded without being a trial.
    let store = pruner::store::Store::open(&store_path).expect("store re-opens");
    assert_eq!(
        store.len() as u64,
        result.stats.trials + result.stats.quarantined,
        "every verdict is recorded"
    );
    assert!(
        store.records().iter().all(|r| r.backend == "cpu"),
        "cpu campaigns must tag records with their backend"
    );
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Kill-and-resume on the cpu backend: a halted campaign's checkpoint
/// restores through `Tuner::<CpuExec>::resume` and runs to completion,
/// while the sim-typed `Pruner::resume` refuses the checkpoint.
#[test]
fn cpu_checkpoint_resumes_on_cpu_and_is_rejected_by_sim() {
    let dir = tmp_dir("ckpt");
    let ckpt = dir.join("campaign.json");
    let builder = || {
        Pruner::builder(GpuSpec::t4())
            .workload(Workload::matmul(1, 48, 48, 48))
            .config(TunerConfig { rounds: 3, ..TunerConfig::quick() })
            .seed(22)
            .checkpoint(&ckpt)
            .checkpoint_every(1)
    };
    builder().halt_after(1).build_with(smoke_exec()).tune();
    assert!(ckpt.exists(), "halted campaign must leave a checkpoint");

    match Pruner::resume(&ckpt) {
        Ok(_) => panic!("sim resume must reject a cpu checkpoint"),
        Err(err) => assert_eq!(err.kind(), std::io::ErrorKind::InvalidData),
    }

    let resumed = Tuner::<CpuExec>::resume(&ckpt).expect("cpu resume").run();
    assert!(resumed.best_latency_s > 0.0);
    assert!(resumed.curve.points().len() >= 3, "resumed campaign finishes all rounds");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Records from both backends coexist in one store file and never
/// cross-contaminate a replay.
#[test]
fn one_store_keeps_sim_and_cpu_records_apart() {
    let dir = tmp_dir("mixed");
    let store_path = dir.join("records.jsonl");
    let wl = Workload::matmul(1, 48, 48, 48);
    let cfg = || TunerConfig { rounds: 2, ..TunerConfig::quick() };
    // Warm start off: both campaigns record without replaying, so the
    // file ends up holding each campaign's full verdict history.
    Pruner::builder(GpuSpec::t4())
        .workload(wl.clone())
        .config(cfg())
        .seed(23)
        .store(&store_path)
        .warm_start(false)
        .build()
        .tune();
    Pruner::builder(GpuSpec::t4())
        .workload(wl.clone())
        .config(cfg())
        .seed(23)
        .store(&store_path)
        .warm_start(false)
        .build_with(smoke_exec())
        .tune();

    let store = pruner::store::Store::open(&store_path).expect("store re-opens");
    let sim_count = store.records().iter().filter(|r| r.backend == "sim").count();
    let cpu_count = store.records().iter().filter(|r| r.backend == "cpu").count();
    assert!(sim_count > 0 && cpu_count > 0, "both campaigns recorded");

    let spec_fp = GpuSpec::t4().fingerprint();
    let wl_fps: std::collections::HashSet<String> = std::iter::once(wl.key()).collect();
    let replay = store.replay("cpu", &spec_fp, &wl_fps);
    assert_eq!(replay.records.len(), cpu_count);
    assert_eq!(replay.backend_mismatches, sim_count);
    assert!(replay.records.iter().all(|r| r.backend == "cpu"));
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// The core fidelity claim at workload granularity: across a GEMM size
/// sweep, the simulator's best-of-sample latencies and real measured wall
/// times must agree in rank (Spearman ρ ≥ 0.5). Sizes are spaced so the
/// ordering signal dwarfs CI timing noise.
#[test]
fn simulator_orders_gemm_sizes_like_real_execution() {
    let sizes = [32u64, 48, 64, 96, 128, 160, 192];
    let sim = Simulator::new(GpuSpec::t4());
    let cpu = CpuExec::with_config(
        GpuSpec::t4(),
        CpuExecConfig {
            threads: 2,
            timer: TimerConfig { samples: 5, min_window_s: 1e-4, ..TimerConfig::default() },
        },
    );
    let mut sim_lat = Vec::new();
    let mut cpu_lat = Vec::new();
    for &s in &sizes {
        let wl = Workload::matmul(1, s, s, s);
        sim_lat.push(best_of(&sim, &wl, 8, s));
        // One fixed program per size keeps the cpu cost bounded; rank
        // order across sizes is what is under test.
        cpu_lat.push(cpu.latency(&pruner::sketch::Program::fallback(&wl)));
    }
    let rho = stats::spearman(&sim_lat, &cpu_lat);
    let tau = stats::kendall_tau(&sim_lat, &cpu_lat);
    assert!(
        rho >= 0.5,
        "simulator and wall clock disagree on GEMM size ordering: ρ = {rho:.2} \
         (sim {sim_lat:?}, cpu {cpu_lat:?})"
    );
    assert!(tau > 0.0, "Kendall τ must at least be positive, got {tau:.2}");
}
