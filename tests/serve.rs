//! Service-level end-to-end tests for the `pruner-serve` daemon.
//!
//! Everything here drives a *real* daemon over a *real* Unix domain
//! socket — the daemon runs in-process (so a test failure leaves no
//! orphan), but every request crosses the wire format exactly as an
//! external client's would.
//!
//! The contract under test is the serving determinism guarantee:
//!
//! 1. a campaign submitted to the daemon produces a result (and store
//!    records) byte-identical to the same campaign run through the
//!    one-shot API,
//! 2. a daemon killed mid-flight and restarted on the same state
//!    directory resumes *every* in-flight tenant and still converges to
//!    those same bytes, and
//! 3. concurrent tenants sharing one store leave it holding exactly the
//!    union of what each would have recorded alone.
//!
//! A final test keeps `docs/SERVING.md` honest: every wire-format
//! example line in the doc must parse as a valid request or response.

use pruner::cost::ModelKind;
use pruner::gpu::GpuSpec;
use pruner::ir::Workload;
use pruner::serve::{Client, Daemon, Request, Response, ServeConfig};
use pruner::store::Store;
use pruner::tuner::{ModelSetup, Tuner, TunerConfig, TuningResult};
use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pruner-serve-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Small-but-real campaign config: several checkpoint boundaries so a
/// kill always lands between durable states, finishes in seconds.
fn serve_config(seed: u64) -> TunerConfig {
    TunerConfig {
        rounds: 6,
        measure_per_round: 3,
        space_size: 32,
        target_pool: 96,
        checkpoint_every: 2,
        seed,
        ..TunerConfig::default()
    }
}

/// The kill-and-restart campaigns. The kill is gated on the first cadence
/// checkpoint (2 rounds in), which leaves every campaign ≥ 14 rounds to
/// run — ≥ 70 ms of work in an optimised build, seconds unoptimised —
/// against a kill that lands within one accept-loop poll (15 ms). More
/// rounds would buy more margin at 50× their cost in the debug profile.
fn restart_config(seed: u64) -> TunerConfig {
    TunerConfig { rounds: 16, ..serve_config(seed) }
}

/// Each tenant tunes a *different* shape so shared-store dedup keys are
/// disjoint across tenants and the exact-union assertion is byte-exact.
fn tenant_workload(i: usize) -> Workload {
    Workload::matmul(1, 64 << i, 64, 64)
}

/// The one-shot golden for a tenant: same spec, config and workload as
/// the daemon submission, record-only store on the side.
fn solo_run(config: TunerConfig, workload: &Workload, store_path: &Path) -> TuningResult {
    let mut t = Tuner::new(GpuSpec::t4(), config, ModelSetup::Fresh(ModelKind::Pacm));
    t.add_task(workload.clone(), 1);
    t.set_store(Store::open(store_path).expect("solo store opens"), false);
    let result = t.run();
    t.store().expect("store attached").flush().expect("solo store flushes");
    result
}

fn result_bytes(result: &TuningResult) -> String {
    serde_json::to_string(result).expect("result serializes")
}

fn store_lines(path: &Path) -> BTreeSet<String> {
    fs::read_to_string(path)
        .unwrap_or_default()
        .lines()
        .map(str::to_owned)
        .collect()
}

fn submit(client: &mut Client, tenant: &str, config: TunerConfig, workload: &Workload) -> String {
    let req = Request::SubmitCampaign {
        tenant: tenant.to_owned(),
        spec: GpuSpec::t4(),
        workloads: vec![(workload.clone(), 1)],
        config,
        model: None,
    };
    match client.call(&req).expect("submit crosses the wire") {
        Response::Submitted { campaign } => campaign,
        other => panic!("submit answered {other:?}"),
    }
}

fn status(client: &mut Client, campaign: &str) -> (String, Option<f64>, Option<String>) {
    let req = Request::Status { campaign: campaign.to_owned() };
    match client.call(&req).expect("status crosses the wire") {
        Response::Status { state, best_latency_s, result, .. } => (state, best_latency_s, result),
        other => panic!("status answered {other:?}"),
    }
}

fn wait_done(client: &mut Client, campaign: &str) -> (Option<f64>, Option<String>) {
    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    loop {
        let (state, best, result) = status(client, campaign);
        match state.as_str() {
            "done" => return (best, result),
            "queued" | "running" => {
                assert!(std::time::Instant::now() < deadline, "campaign {campaign} timed out");
                std::thread::sleep(Duration::from_millis(30));
            }
            other => panic!("campaign {campaign} ended {other}"),
        }
    }
}

/// Submit → status → complete lifecycle, plus the small verbs (predict,
/// cancel bookkeeping, shutdown) against one resident daemon.
#[test]
fn daemon_lifecycle_submit_status_predict_shutdown() {
    let dir = scratch_dir("lifecycle");
    let cfg = ServeConfig::new(dir.join("sock"), dir.join("state"));
    let daemon = Daemon::start(cfg).expect("daemon starts");
    let mut client =
        Client::connect_with_retry(daemon.socket(), Duration::from_secs(5)).expect("connects");

    // Unknown campaigns answer with a typed error, not a hangup.
    let req = Request::Status { campaign: "nobody-9999".into() };
    match client.call(&req).expect("error crosses the wire") {
        Response::Error { message } => assert!(message.contains("nobody-9999")),
        other => panic!("unknown campaign answered {other:?}"),
    }

    // PredictOnly works against a built-in model kind with no campaign.
    let programs =
        vec![pruner::sketch::Program::fallback(&tenant_workload(0))];
    let req = Request::PredictOnly { model: "pacm".into(), programs };
    match client.call(&req).expect("predict crosses the wire") {
        Response::Scores { scores } => {
            assert_eq!(scores.len(), 1);
            assert!(scores[0].is_finite());
        }
        other => panic!("predict answered {other:?}"),
    }

    let id = submit(&mut client, "alice", serve_config(42), &tenant_workload(0));
    assert!(id.starts_with("alice-"), "campaign id {id} carries its tenant");
    let (state, _, _) = status(&mut client, &id);
    assert!(
        matches!(state.as_str(), "queued" | "running" | "done"),
        "fresh campaign reports a live state, got {state}"
    );
    let (best, result) = wait_done(&mut client, &id);
    let best = best.expect("finished campaign reports best latency");
    assert!(best > 0.0 && best.is_finite());
    let result = result.expect("finished campaign ships its result");
    assert!(result.contains("best_latency_s"));

    // Cancelling a finished campaign is a no-op error, not a crash.
    let req = Request::Cancel { campaign: id.clone() };
    match client.call(&req).expect("cancel crosses the wire") {
        Response::Error { .. } | Response::Cancelled { .. } => {}
        other => panic!("cancel answered {other:?}"),
    }

    match client.call(&Request::Shutdown).expect("shutdown crosses the wire") {
        Response::ShuttingDown => {}
        other => panic!("shutdown answered {other:?}"),
    }
    daemon.shutdown().expect("daemon tears down");
    assert!(dir.join("state").join("serve-trace.jsonl").exists(), "shutdown writes the trace");
    let _ = fs::remove_dir_all(&dir);
}

/// The serving determinism golden: a daemon-submitted campaign is
/// byte-identical — result JSON *and* store records — to the same
/// campaign run through the one-shot API.
#[test]
fn daemon_campaign_is_byte_identical_to_oneshot() {
    let dir = scratch_dir("golden");
    let workload = tenant_workload(0);
    let solo = solo_run(serve_config(42), &workload, &dir.join("solo-store.jsonl"));

    let state = dir.join("state");
    let cfg = ServeConfig::new(dir.join("sock"), &state);
    let daemon = Daemon::start(cfg).expect("daemon starts");
    let mut client =
        Client::connect_with_retry(daemon.socket(), Duration::from_secs(5)).expect("connects");
    let id = submit(&mut client, "alice", serve_config(42), &workload);
    let (_, wire_result) = wait_done(&mut client, &id);
    daemon.shutdown().expect("daemon tears down");

    let golden = result_bytes(&solo);
    assert_eq!(wire_result.as_deref(), Some(golden.as_str()), "wire result matches one-shot");
    let on_disk = fs::read_to_string(state.join("tenants/alice").join(&id).join("result.json"))
        .expect("daemon persisted result.json");
    assert_eq!(on_disk, golden, "persisted result matches one-shot byte-for-byte");
    assert_eq!(
        store_lines(&state.join("store.jsonl")),
        store_lines(&dir.join("solo-store.jsonl")),
        "daemon store records match the one-shot store"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// Kill the daemon with four tenants in flight, restart it on the same
/// state directory: every tenant resumes and still converges to its
/// one-shot bytes.
#[test]
fn killed_daemon_restart_resumes_every_tenant() {
    let dir = scratch_dir("restart");
    const TENANTS: [&str; 4] = ["alice", "bob", "carol", "dave"];

    let mut goldens = Vec::new();
    for (i, tenant) in TENANTS.iter().enumerate() {
        let solo_store = dir.join(format!("solo-{tenant}.jsonl"));
        let config = restart_config(100 + i as u64);
        goldens.push(result_bytes(&solo_run(config, &tenant_workload(i), &solo_store)));
    }

    let state = dir.join("state");
    let mut cfg = ServeConfig::new(dir.join("sock"), &state);
    cfg.workers = 2; // half the tenants queued, half running at the kill
    let daemon = Daemon::start(cfg.clone()).expect("daemon starts");
    let mut client =
        Client::connect_with_retry(daemon.socket(), Duration::from_secs(5)).expect("connects");
    let ids: Vec<String> = TENANTS
        .iter()
        .enumerate()
        .map(|(i, tenant)| {
            submit(&mut client, tenant, restart_config(100 + i as u64), &tenant_workload(i))
        })
        .collect();
    drop(client);
    // Wait until a running campaign has published its first cadence
    // checkpoint, then pull the plug without any teardown courtesy: no
    // final store flush, no trace write, queues dropped.
    let campaign_dir = |i: usize| state.join("tenants").join(TENANTS[i]).join(&ids[i]);
    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    while !(0..TENANTS.len()).any(|i| campaign_dir(i).join("checkpoint.json").exists()) {
        assert!(std::time::Instant::now() < deadline, "no campaign ever checkpointed");
        std::thread::sleep(Duration::from_millis(2));
    }
    daemon.kill();

    for (i, id) in ids.iter().enumerate() {
        let campaign = campaign_dir(i);
        assert!(campaign.join("manifest.json").exists(), "{id} manifest survives the kill");
        assert!(!campaign.join("result.json").exists(), "{id} had not finished");
    }

    let daemon = Daemon::start(cfg).expect("daemon restarts on the same state dir");
    assert_eq!(daemon.resumed(), TENANTS.len() as u64, "every in-flight tenant resumes");
    let mut client =
        Client::connect_with_retry(daemon.socket(), Duration::from_secs(5)).expect("reconnects");
    for (i, id) in ids.iter().enumerate() {
        let (_, wire_result) = wait_done(&mut client, id);
        assert_eq!(
            wire_result.as_deref(),
            Some(goldens[i].as_str()),
            "{}: resumed campaign matches its one-shot bytes",
            TENANTS[i]
        );
    }
    daemon.shutdown().expect("daemon tears down");
    let _ = fs::remove_dir_all(&dir);
}

/// Concurrent-tenant soak: four tenants with distinct seeds tuning at
/// once. Per-tenant results are byte-identical to their solo runs and
/// the shared store ends up holding exactly the union of the four solo
/// stores.
#[test]
fn concurrent_tenants_match_solo_and_store_is_exact_union() {
    let dir = scratch_dir("soak");
    const TENANTS: [&str; 4] = ["alice", "bob", "carol", "dave"];

    let mut goldens = Vec::new();
    let mut union = BTreeSet::new();
    for (i, tenant) in TENANTS.iter().enumerate() {
        let solo_store = dir.join(format!("solo-{tenant}.jsonl"));
        let config = serve_config(200 + i as u64);
        goldens.push(result_bytes(&solo_run(config, &tenant_workload(i), &solo_store)));
        union.extend(store_lines(&solo_store));
    }

    let state = dir.join("state");
    let mut cfg = ServeConfig::new(dir.join("sock"), &state);
    cfg.workers = 4; // all four tenants genuinely concurrent
    let daemon = Daemon::start(cfg).expect("daemon starts");
    let mut client =
        Client::connect_with_retry(daemon.socket(), Duration::from_secs(5)).expect("connects");
    let ids: Vec<String> = TENANTS
        .iter()
        .enumerate()
        .map(|(i, tenant)| {
            submit(&mut client, tenant, serve_config(200 + i as u64), &tenant_workload(i))
        })
        .collect();
    for (i, id) in ids.iter().enumerate() {
        let (_, wire_result) = wait_done(&mut client, id);
        assert_eq!(
            wire_result.as_deref(),
            Some(goldens[i].as_str()),
            "{}: concurrent campaign matches its solo bytes",
            TENANTS[i]
        );
    }
    daemon.shutdown().expect("daemon tears down");
    assert_eq!(
        store_lines(&state.join("store.jsonl")),
        union,
        "shared store is the exact union of the four solo stores"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// A durable write the wire has no way to report — here a `cancelled`
/// marker whose temp path is squatted by a directory — leaves the wire
/// response unchanged and is counted in the daemon's report.
#[test]
fn failed_marker_write_is_traced_not_silent() {
    let dir = scratch_dir("ioerror");
    let state = dir.join("state");
    let daemon =
        Daemon::start(ServeConfig::new(dir.join("sock"), &state)).expect("daemon starts");
    let mut client =
        Client::connect_with_retry(daemon.socket(), Duration::from_secs(5)).expect("connects");
    // Per-tenant budget 1: the second campaign waits behind the first.
    let first = submit(&mut client, "alice", restart_config(1), &tenant_workload(0));
    let second = submit(&mut client, "alice", restart_config(2), &tenant_workload(1));
    fs::create_dir_all(state.join("tenants/alice").join(&second).join("cancelled.tmp"))
        .expect("squat on the marker's temp path");

    match client.call(&Request::Cancel { campaign: second.clone() }).expect("cancel crosses") {
        Response::Cancelled { campaign } => assert_eq!(campaign, second),
        other => panic!("cancel answered {other:?}"),
    }
    let _ = client.call(&Request::Cancel { campaign: first }).expect("cancel crosses");
    daemon.wait_idle();

    let report = daemon.report();
    let serve = report.serve.as_ref().expect("the daemon reports serve activity");
    assert_eq!(serve.io_errors, 1, "exactly the blocked marker write failed");
    let text = report.render();
    assert!(text.contains("io errors"), "the report shows the failure:\n{text}");
    daemon.shutdown().expect("daemon tears down");
    let _ = fs::remove_dir_all(&dir);
}

/// Every wire-format example line in `docs/SERVING.md` must parse — the
/// doc cannot drift from the implementation.
/// A malformed program in a `PredictOnly` batch is answered with an error
/// naming it, and the connection stays up for the next request.
#[test]
fn malformed_predict_programs_get_an_error_not_a_hangup() {
    use pruner::sketch::{Program, Schedule, SimpleConfig, TileConfig};
    let dir = scratch_dir("malformed");
    let cfg = ServeConfig::new(dir.join("sock"), dir.join("state"));
    let daemon = Daemon::start(cfg).expect("daemon starts");
    let mut client =
        Client::connect_with_retry(daemon.socket(), Duration::from_secs(5)).expect("connects");
    let wl = tenant_workload(0);
    let tile = |spatial: Vec<[u64; 5]>, reduce: Vec<[u64; 3]>| {
        let t = TileConfig { spatial, reduce, unroll: 0, vectorize: 1 };
        Program::new(wl.clone(), Schedule::MultiTile(t))
    };
    let malformed = [
        // One spatial split for a two-axis matmul.
        tile(vec![[1, 1, 64, 1, 1]], vec![[4, 4, 4]]),
        // Every factor 1: padded extents below the true extents.
        tile(vec![[1; 5]; 2], vec![[1; 3]]),
        // A zero factor.
        tile(vec![[0, 1, 64, 1, 1], [1, 1, 64, 1, 1]], vec![[4, 4, 4]]),
        // Factors whose products overflow.
        tile(vec![[1 << 40, 1, 64, 1, 1], [1 << 40, 1, 64, 1, 1]], vec![[4, 4, 4]]),
        // An element-wise schedule of a matmul.
        Program::new(
            wl.clone(),
            Schedule::Simple(SimpleConfig { threads: 64, serial: 1, vectorize: 1 }),
        ),
    ];
    for bad in malformed {
        let programs = vec![Program::fallback(&wl), bad];
        let req = Request::PredictOnly { model: "pacm".into(), programs };
        match client.call(&req).expect("the error crosses the wire") {
            Response::Error { message } => assert!(message.contains("program 1"), "{message}"),
            other => panic!("a malformed program was answered {other:?}"),
        }
    }
    let programs = vec![Program::fallback(&wl)];
    let req = Request::PredictOnly { model: "pacm".into(), programs };
    match client.call(&req).expect("the connection survives") {
        Response::Scores { scores } => assert_eq!(scores.len(), 1),
        other => panic!("predict answered {other:?}"),
    }
    match client.call(&Request::Shutdown).expect("shutdown crosses the wire") {
        Response::ShuttingDown => {}
        other => panic!("shutdown answered {other:?}"),
    }
    daemon.shutdown().expect("daemon tears down");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn serving_doc_examples_parse() {
    let doc = fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/SERVING.md"))
        .expect("docs/SERVING.md exists");
    let mut requests = 0usize;
    let mut responses = 0usize;
    for line in doc.lines().map(str::trim) {
        if !line.starts_with("{\"v\":") {
            continue;
        }
        let as_request = Request::parse_line(line);
        let as_response = Response::parse_line(line);
        assert!(
            as_request.is_ok() || as_response.is_ok(),
            "doc example does not parse as request ({as_request:?}) or response \
             ({as_response:?}): {line}"
        );
        if as_request.is_ok() {
            requests += 1;
        } else {
            responses += 1;
        }
    }
    assert!(requests >= 3, "SERVING.md shows at least three request examples, found {requests}");
    assert!(responses >= 3, "SERVING.md shows at least three response examples, found {responses}");
}
