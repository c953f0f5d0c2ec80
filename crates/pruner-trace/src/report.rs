//! End-of-campaign aggregation of a collected trace.

use crate::record::{Record, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Aggregated view of one campaign's trace: the draft→verify funnel, the
/// simulated-time ledger, host wall-clock per span, fault counts and the
/// campaign counters. Built with [`crate::TraceHandle::report`] and
/// rendered as a summary table with [`Report::render`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// Tuning rounds observed (one `round` funnel record each).
    pub rounds: u64,
    /// Candidates bred by the evolutionary search, all rounds.
    pub generated: u64,
    /// Candidates surviving deduplication against the measured set.
    pub deduped: u64,
    /// Candidates kept by PSA drafting (the target space), all rounds.
    pub psa_survivors: u64,
    /// Candidates scored by the learned cost model, all rounds.
    pub predicted: u64,
    /// Programs sent to the device, all rounds.
    pub measured: u64,
    /// Measurements that failed permanently (quarantined), all rounds.
    pub failed: u64,
    /// Final best weighted latency, seconds.
    pub best_latency_s: f64,
    /// Simulated seconds by ledger category, from the `campaign_end`
    /// record, in emission order.
    pub sim_ledger: Vec<(String, f64)>,
    /// Total simulated search seconds.
    pub sim_total_s: f64,
    /// Host wall-clock per span name: (spans closed, total seconds).
    pub host_spans: BTreeMap<String, (u64, f64)>,
    /// Fault attempts by class.
    pub faults: BTreeMap<String, u64>,
    /// Aggregated campaign counters.
    pub counters: BTreeMap<String, u64>,
    /// Persistent tuning-record store activity, present when the campaign
    /// ran with a store attached (`store_replay`/`store_flush` records).
    pub store: Option<StoreActivity>,
    /// Supervision activity, present when the campaign ran under a
    /// supervisor (`supervisor.*` records).
    pub supervisor: Option<SupervisorActivity>,
    /// Tuning-daemon activity, present when the trace came from a
    /// `pruner-serve` process (`serve.*` records).
    pub serve: Option<ServeActivity>,
    /// Cross-hardware fleet activity, present when the trace came from a
    /// `pruner-tune fleet` run (`fleet.*` records).
    pub fleet: Option<FleetActivity>,
}

/// What a campaign's attached tuning-record store did: the warm-start
/// replay before round 0 and the final flush.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreActivity {
    /// Records loaded from the store file at open.
    pub replay_loaded: u64,
    /// Loaded records matching this campaign's platform and tasks.
    pub replay_matched: u64,
    /// Verdicts pre-seeded into the measurement cache (first sighting of
    /// each dedupe key wins).
    pub preseeded: u64,
    /// Successful replayed measurements used to pre-train the cost model.
    pub pretrain_samples: u64,
    /// Live records in the store at the final flush.
    pub records: u64,
    /// Fresh records appended by this campaign.
    pub appended: u64,
}

/// What the crash-safe supervisor did across one campaign's incarnations:
/// detected faults by class, restarts performed, and how the supervision
/// ended.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SupervisorActivity {
    /// Faults detected, by class label (`stalled`, `panicked`, `io`,
    /// `checkpoint_unreadable`).
    pub faults: BTreeMap<String, u64>,
    /// Restarts performed.
    pub restarts: u64,
    /// Whether the campaign was quarantined (gave up after too many
    /// faults).
    pub quarantined: bool,
    /// Final outcome label from the `supervisor.done` record
    /// (`completed`, `wall_deadline`, `sim_deadline`, `quarantined`).
    pub outcome: String,
}

/// What a `pruner-serve` daemon did over its lifetime: campaigns
/// submitted, resumed after a restart, finished by outcome, and how well
/// the cross-tenant inference batcher coalesced predict traffic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeActivity {
    /// Campaigns accepted through `SubmitCampaign` requests.
    pub submitted: u64,
    /// In-flight campaigns resumed from their checkpoints when the daemon
    /// restarted.
    pub resumed: u64,
    /// Campaigns cancelled through `Cancel` requests.
    pub cancelled: u64,
    /// Finished campaigns by outcome label (`completed`, `cancelled`,
    /// `quarantined`, ...), from `serve.done` records.
    pub done: BTreeMap<String, u64>,
    /// `predict_batch` invocations issued by the inference batcher.
    pub batches: u64,
    /// Predict requests coalesced into those invocations (> `batches`
    /// means cross-tenant coalescing happened).
    pub batched_requests: u64,
    /// Total samples scored through the batcher.
    pub batched_samples: u64,
    /// Durable writes that failed without a wire error to carry them —
    /// result files, skip markers, cadence store flushes (`serve.io_error`
    /// records).
    pub io_errors: u64,
}

/// What a cross-hardware fleet run did over its roster: stages tuned (one
/// supervised campaign per device), probe evaluations scored after each
/// stage, and how the run ended (completed the roster, parked mid-roster,
/// or resumed from a manifest).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetActivity {
    /// Roster length from the `fleet.start` record.
    pub roster: u64,
    /// Stages completed, as (device name, best weighted latency in
    /// seconds), in completion order (`fleet.stage` records).
    pub stages: Vec<(String, f64)>,
    /// Anti-forgetting probe evaluations emitted (`fleet.eval` records).
    pub evals: u64,
    /// Pre-training samples consumed before stage 0 (`fleet.pretrain`).
    pub pretrain_samples: u64,
    /// Stages already done when a manifest resume happened
    /// (`fleet.resume`); 0 for a fresh run.
    pub resumed_at: u64,
    /// Whether the run parked mid-roster (`fleet.park`).
    pub parked: bool,
    /// Whether the run completed the roster (`fleet.done`).
    pub completed: bool,
}

const LEDGER_KEYS: [&str; 7] = [
    "measure_time_s",
    "model_time_s",
    "psa_time_s",
    "train_time_s",
    "evolve_time_s",
    "retry_backoff_s",
    "fault_time_s",
];

impl Report {
    /// Aggregates a record stream (see the crate docs for the schema).
    pub(crate) fn from_records(records: &[Record]) -> Report {
        let mut report = Report::default();
        let get_u64 =
            |r: &Record, key: &str| r.get(key).and_then(Value::as_u64).unwrap_or(0);
        for record in records {
            match record.kind() {
                "round" => {
                    report.rounds += 1;
                    report.generated += get_u64(record, "generated");
                    report.deduped += get_u64(record, "deduped");
                    report.psa_survivors += get_u64(record, "psa_survivors");
                    report.predicted += get_u64(record, "predicted");
                    report.measured += get_u64(record, "measured");
                    report.failed += get_u64(record, "failed");
                    if let Some(best) = record.get("best_latency_s").and_then(Value::as_f64) {
                        report.best_latency_s = best;
                    }
                }
                "campaign_end" => {
                    for key in LEDGER_KEYS {
                        if let Some(v) = record.get(key).and_then(Value::as_f64) {
                            report.sim_ledger.push((key.to_string(), v));
                        }
                    }
                    if let Some(total) = record.get("sim_total_s").and_then(Value::as_f64) {
                        report.sim_total_s = total;
                    }
                    if let Some(best) = record.get("best_latency_s").and_then(Value::as_f64) {
                        report.best_latency_s = best;
                    }
                }
                "span" => {
                    let name = record
                        .get("name")
                        .and_then(Value::as_str)
                        .unwrap_or("?")
                        .to_string();
                    let host_s =
                        record.get("host_s").and_then(Value::as_f64).unwrap_or(0.0);
                    let entry = report.host_spans.entry(name).or_insert((0, 0.0));
                    entry.0 += 1;
                    entry.1 += host_s;
                }
                "fault" => {
                    let kind = record
                        .get("fault_kind")
                        .and_then(Value::as_str)
                        .unwrap_or("?")
                        .to_string();
                    *report.faults.entry(kind).or_insert(0) += 1;
                }
                "store_replay" => {
                    let store = report.store.get_or_insert_with(StoreActivity::default);
                    store.replay_loaded = get_u64(record, "loaded");
                    store.replay_matched = get_u64(record, "matched");
                    store.preseeded = get_u64(record, "preseeded");
                    store.pretrain_samples = get_u64(record, "pretrain_samples");
                }
                "store_flush" => {
                    let store = report.store.get_or_insert_with(StoreActivity::default);
                    store.records = get_u64(record, "records");
                    store.appended = get_u64(record, "appended");
                }
                "supervisor.start" => {
                    report.supervisor.get_or_insert_with(SupervisorActivity::default);
                }
                "supervisor.fault" => {
                    let sup =
                        report.supervisor.get_or_insert_with(SupervisorActivity::default);
                    let label = record
                        .get("fault")
                        .and_then(Value::as_str)
                        .unwrap_or("?")
                        .to_string();
                    *sup.faults.entry(label).or_insert(0) += 1;
                }
                "supervisor.quarantine" => {
                    report
                        .supervisor
                        .get_or_insert_with(SupervisorActivity::default)
                        .quarantined = true;
                }
                "supervisor.done" => {
                    let sup =
                        report.supervisor.get_or_insert_with(SupervisorActivity::default);
                    sup.restarts = get_u64(record, "restarts");
                    sup.outcome = record
                        .get("outcome")
                        .and_then(Value::as_str)
                        .unwrap_or("?")
                        .to_string();
                }
                "serve.start" => {
                    report.serve.get_or_insert_with(ServeActivity::default);
                }
                "serve.submit" => {
                    report.serve.get_or_insert_with(ServeActivity::default).submitted += 1;
                }
                "serve.resume" => {
                    report.serve.get_or_insert_with(ServeActivity::default).resumed +=
                        get_u64(record, "campaigns");
                }
                "serve.cancel" => {
                    report.serve.get_or_insert_with(ServeActivity::default).cancelled += 1;
                }
                "serve.done" => {
                    let serve = report.serve.get_or_insert_with(ServeActivity::default);
                    let outcome = record
                        .get("outcome")
                        .and_then(Value::as_str)
                        .unwrap_or("?")
                        .to_string();
                    *serve.done.entry(outcome).or_insert(0) += 1;
                }
                "serve.io_error" => {
                    report.serve.get_or_insert_with(ServeActivity::default).io_errors += 1;
                }
                "serve.batch" => {
                    let serve = report.serve.get_or_insert_with(ServeActivity::default);
                    serve.batches += 1;
                    serve.batched_requests += get_u64(record, "requests");
                    serve.batched_samples += get_u64(record, "samples");
                }
                "fleet.start" => {
                    let fleet = report.fleet.get_or_insert_with(FleetActivity::default);
                    fleet.roster = get_u64(record, "roster");
                }
                "fleet.pretrain" => {
                    report
                        .fleet
                        .get_or_insert_with(FleetActivity::default)
                        .pretrain_samples = get_u64(record, "samples");
                }
                "fleet.resume" => {
                    report.fleet.get_or_insert_with(FleetActivity::default).resumed_at =
                        get_u64(record, "stages_done");
                }
                "fleet.stage" => {
                    let fleet = report.fleet.get_or_insert_with(FleetActivity::default);
                    let device = record
                        .get("device")
                        .and_then(Value::as_str)
                        .unwrap_or("?")
                        .to_string();
                    let best = record
                        .get("best_latency_s")
                        .and_then(Value::as_f64)
                        .unwrap_or(f64::NAN);
                    fleet.stages.push((device, best));
                }
                "fleet.eval" => {
                    report.fleet.get_or_insert_with(FleetActivity::default).evals += 1;
                }
                "fleet.park" => {
                    report.fleet.get_or_insert_with(FleetActivity::default).parked = true;
                }
                "fleet.done" => {
                    report.fleet.get_or_insert_with(FleetActivity::default).completed =
                        true;
                }
                "counter" => {
                    if let (Some(name), Some(value)) = (
                        record.get("name").and_then(Value::as_str),
                        record.get("value").and_then(Value::as_u64),
                    ) {
                        report.counters.insert(name.to_string(), value);
                    }
                }
                _ => {}
            }
        }
        report
    }

    /// Renders the report as the fixed-width summary table the CLI prints
    /// on stderr under `--report`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "=== campaign report ===");
        let _ = writeln!(out, "rounds               : {}", self.rounds);
        let _ = writeln!(out, "best latency         : {:.4} ms", self.best_latency_s * 1e3);
        let _ = writeln!(out, "--- draft -> verify funnel (all rounds) ---");
        for (label, value) in [
            ("generated", self.generated),
            ("after dedup", self.deduped),
            ("psa survivors", self.psa_survivors),
            ("model predicted", self.predicted),
            ("measured", self.measured),
            ("failed", self.failed),
        ] {
            let _ = writeln!(out, "{label:<21}: {value}");
        }
        if !self.sim_ledger.is_empty() {
            let _ = writeln!(out, "--- simulated time ledger ---");
            for (key, value) in &self.sim_ledger {
                let _ = writeln!(out, "{key:<21}: {value:.1} s");
            }
            let _ = writeln!(out, "{:<21}: {:.1} s", "total", self.sim_total_s);
        }
        if !self.host_spans.is_empty() {
            let _ = writeln!(out, "--- host wall clock by span ---");
            for (name, (count, total)) in &self.host_spans {
                let _ = writeln!(out, "{name:<21}: {total:>9.3} s over {count} spans");
            }
        }
        if !self.faults.is_empty() {
            let _ = writeln!(out, "--- faults by class ---");
            for (kind, count) in &self.faults {
                let _ = writeln!(out, "{kind:<21}: {count}");
            }
        }
        if let Some(store) = &self.store {
            let _ = writeln!(out, "--- tuning-record store ---");
            let _ = writeln!(
                out,
                "{:<21}: {} matched of {} loaded",
                "replayed", store.replay_matched, store.replay_loaded
            );
            let _ = writeln!(
                out,
                "{:<21}: {} cached verdicts, {} pre-train samples",
                "preseeded", store.preseeded, store.pretrain_samples
            );
            let _ = writeln!(
                out,
                "{:<21}: {} records ({} new this run)",
                "flushed", store.records, store.appended
            );
        }
        if let Some(sup) = &self.supervisor {
            let _ = writeln!(out, "--- supervisor ---");
            let _ = writeln!(out, "{:<21}: {}", "outcome", sup.outcome);
            let _ = writeln!(out, "{:<21}: {}", "restarts", sup.restarts);
            for (label, count) in &sup.faults {
                let _ = writeln!(out, "fault {label:<15}: {count}");
            }
            if sup.quarantined {
                let _ = writeln!(out, "{:<21}: campaign gave up after repeated faults", "quarantined");
            }
        }
        if let Some(serve) = &self.serve {
            let _ = writeln!(out, "--- serve ---");
            let _ = writeln!(
                out,
                "{:<21}: {} ({} resumed on restart)",
                "campaigns submitted", serve.submitted, serve.resumed
            );
            if serve.cancelled > 0 {
                let _ = writeln!(out, "{:<21}: {}", "cancel requests", serve.cancelled);
            }
            for (outcome, count) in &serve.done {
                let _ = writeln!(out, "done {outcome:<16}: {count}");
            }
            if serve.batches > 0 {
                let _ = writeln!(
                    out,
                    "{:<21}: {} batches over {} requests ({} samples)",
                    "batched inference", serve.batches, serve.batched_requests,
                    serve.batched_samples
                );
            }
            if serve.io_errors > 0 {
                let _ = writeln!(out, "{:<21}: {}", "io errors", serve.io_errors);
            }
        }
        if let Some(fleet) = &self.fleet {
            let _ = writeln!(out, "--- fleet ---");
            let _ = writeln!(
                out,
                "{:<21}: {} devices, {} stages done",
                "roster",
                fleet.roster,
                fleet.stages.len()
            );
            if fleet.resumed_at > 0 {
                let _ = writeln!(out, "{:<21}: at stage {}", "resumed", fleet.resumed_at);
            }
            if fleet.pretrain_samples > 0 {
                let _ = writeln!(
                    out,
                    "{:<21}: {} samples",
                    "pretrained", fleet.pretrain_samples
                );
            }
            for (device, best) in &fleet.stages {
                let _ = writeln!(out, "stage {device:<15}: {:.4} ms", best * 1e3);
            }
            let _ = writeln!(out, "{:<21}: {}", "probe evals", fleet.evals);
            let status = if fleet.completed {
                "completed"
            } else if fleet.parked {
                "parked mid-roster"
            } else {
                "interrupted"
            };
            let _ = writeln!(out, "{:<21}: {status}", "status");
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "--- counters ---");
            for (name, value) in &self.counters {
                let _ = writeln!(out, "{name:<21}: {value}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_records() -> Vec<Record> {
        vec![
            Record::new("campaign_begin").u64("seed", 42).u64("rounds", 2),
            Record::new("round")
                .u64("round", 0)
                .u64("generated", 100)
                .u64("deduped", 90)
                .u64("psa_survivors", 40)
                .u64("predicted", 50)
                .u64("measured", 4)
                .u64("failed", 1)
                .f64("best_latency_s", 2e-3),
            Record::new("span").str("name", "round").u64("depth", 0).host_f64("host_s", 0.5),
            Record::new("span").str("name", "round").u64("depth", 0).host_f64("host_s", 0.25),
            Record::new("fault").str("fault_kind", "timeout").u64("attempt", 1),
            Record::new("round")
                .u64("round", 1)
                .u64("generated", 80)
                .u64("deduped", 70)
                .u64("psa_survivors", 30)
                .u64("predicted", 40)
                .u64("measured", 4)
                .u64("failed", 0)
                .f64("best_latency_s", 1e-3),
            Record::new("campaign_end")
                .f64("measure_time_s", 30.0)
                .f64("psa_time_s", 1.0)
                .f64("sim_total_s", 31.0)
                .f64("best_latency_s", 1e-3),
            Record::new("counter").str("name", "measure.cache_hits").u64("value", 3),
        ]
    }

    #[test]
    fn aggregates_funnel_ledger_spans_and_faults() {
        let report = Report::from_records(&demo_records());
        assert_eq!(report.rounds, 2);
        assert_eq!(report.generated, 180);
        assert_eq!(report.deduped, 160);
        assert_eq!(report.psa_survivors, 70);
        assert_eq!(report.predicted, 90);
        assert_eq!(report.measured, 8);
        assert_eq!(report.failed, 1);
        assert_eq!(report.best_latency_s, 1e-3);
        assert_eq!(report.sim_total_s, 31.0);
        assert_eq!(report.sim_ledger.len(), 2);
        let round_span = &report.host_spans["round"];
        assert_eq!(round_span.0, 2);
        assert!((round_span.1 - 0.75).abs() < 1e-12);
        assert_eq!(report.faults["timeout"], 1);
        assert_eq!(report.counters["measure.cache_hits"], 3);
    }

    #[test]
    fn render_mentions_every_funnel_stage() {
        let text = Report::from_records(&demo_records()).render();
        for needle in
            ["generated", "psa survivors", "model predicted", "measured", "timeout", "total"]
        {
            assert!(text.contains(needle), "report missing {needle}:\n{text}");
        }
    }

    #[test]
    fn store_records_aggregate_and_render() {
        let mut records = demo_records();
        records.push(
            Record::new("store_replay")
                .u64("loaded", 12)
                .u64("matched", 9)
                .u64("preseeded", 9)
                .u64("pretrain_samples", 7),
        );
        records.push(Record::new("store_flush").u64("records", 20).u64("appended", 8));
        let report = Report::from_records(&records);
        let store = report.store.expect("store activity must be aggregated");
        assert_eq!(store.replay_loaded, 12);
        assert_eq!(store.replay_matched, 9);
        assert_eq!(store.preseeded, 9);
        assert_eq!(store.pretrain_samples, 7);
        assert_eq!(store.records, 20);
        assert_eq!(store.appended, 8);
        let text = report.render();
        assert!(text.contains("tuning-record store"), "missing store section:\n{text}");
        assert!(text.contains("9 matched of 12 loaded"));
        assert!(text.contains("20 records (8 new this run)"));
        // A storeless campaign renders no store section.
        assert!(!Report::from_records(&demo_records()).render().contains("store"));
    }

    #[test]
    fn supervisor_records_aggregate_and_render() {
        let mut records = demo_records();
        records.push(
            Record::new("supervisor.start")
                .u64("max_restarts", 3)
                .f64("watchdog_timeout_s", 0.5),
        );
        records.push(
            Record::new("supervisor.fault")
                .str("fault", "stalled")
                .u64("attempt", 1)
                .host_f64("host_idle_s", 0.61),
        );
        records.push(
            Record::new("supervisor.restart").u64("restart", 1).f64("backoff_s", 0.01),
        );
        records.push(
            Record::new("supervisor.fault")
                .str("fault", "io")
                .u64("attempt", 2)
                .str("message", "checkpoint write failed"),
        );
        records.push(Record::new("supervisor.restart").u64("restart", 2).f64("backoff_s", 0.02));
        records.push(
            Record::new("supervisor.done").str("outcome", "completed").u64("restarts", 2),
        );
        let report = Report::from_records(&records);
        let sup =
            report.supervisor.clone().expect("supervisor activity must be aggregated");
        assert_eq!(sup.restarts, 2);
        assert_eq!(sup.outcome, "completed");
        assert_eq!(sup.faults["stalled"], 1);
        assert_eq!(sup.faults["io"], 1);
        assert!(!sup.quarantined);
        let text = report.render();
        assert!(text.contains("--- supervisor ---"), "missing section:\n{text}");
        assert!(text.contains("completed"));
        assert!(text.contains("fault stalled"));
        // An unsupervised campaign renders no supervisor section.
        assert!(!Report::from_records(&demo_records()).render().contains("supervisor"));
    }

    #[test]
    fn serve_records_aggregate_and_render() {
        let mut records = demo_records();
        records.push(Record::new("serve.start").u64("workers", 4).u64("schema", 1));
        records.push(Record::new("serve.resume").u64("campaigns", 2));
        records.push(Record::new("serve.submit").str("tenant", "acme").str("campaign", "c1"));
        records.push(Record::new("serve.submit").str("tenant", "blue").str("campaign", "c2"));
        records.push(Record::new("serve.cancel").str("campaign", "c2"));
        records.push(Record::new("serve.batch").u64("requests", 3).u64("samples", 96));
        records.push(Record::new("serve.batch").u64("requests", 1).u64("samples", 16));
        records.push(Record::new("serve.done").str("campaign", "c1").str("outcome", "completed"));
        records.push(Record::new("serve.done").str("campaign", "c2").str("outcome", "cancelled"));
        records.push(
            Record::new("serve.io_error")
                .str("path", "tenants/acme/c1/result.json")
                .str("kind", "PermissionDenied")
                .str("error", "permission denied"),
        );
        let report = Report::from_records(&records);
        let serve = report.serve.clone().expect("serve activity must be aggregated");
        assert_eq!(serve.io_errors, 1);
        assert_eq!(serve.submitted, 2);
        assert_eq!(serve.resumed, 2);
        assert_eq!(serve.cancelled, 1);
        assert_eq!(serve.done["completed"], 1);
        assert_eq!(serve.done["cancelled"], 1);
        assert_eq!(serve.batches, 2);
        assert_eq!(serve.batched_requests, 4);
        assert_eq!(serve.batched_samples, 112);
        let text = report.render();
        assert!(text.contains("--- serve ---"), "missing serve section:\n{text}");
        assert!(text.contains("2 (2 resumed on restart)"));
        assert!(text.contains("done completed"));
        assert!(text.contains("2 batches over 4 requests (112 samples)"));
        assert!(text.lines().any(|l| l.starts_with("io errors") && l.ends_with(": 1")), "{text}");
        // A daemon-less campaign renders no serve section.
        assert!(!Report::from_records(&demo_records()).render().contains("serve"));
    }

    #[test]
    fn quarantine_renders_in_the_supervisor_section() {
        let records = vec![
            Record::new("supervisor.start").u64("max_restarts", 1),
            Record::new("supervisor.fault").str("fault", "panicked").u64("attempt", 1),
            Record::new("supervisor.quarantine").u64("faults", 2),
            Record::new("supervisor.done").str("outcome", "quarantined").u64("restarts", 1),
        ];
        let report = Report::from_records(&records);
        let sup = report.supervisor.as_ref().unwrap();
        assert!(sup.quarantined);
        assert_eq!(sup.outcome, "quarantined");
        assert!(report.render().contains("gave up after repeated faults"));
    }

    #[test]
    fn fleet_records_aggregate_and_render() {
        let mut records = demo_records();
        records.push(Record::new("fleet.start").u64("roster", 3).u64("workloads", 2).u64("stages_done", 0));
        records.push(Record::new("fleet.pretrain").u64("samples", 48).u64("epochs", 3));
        records.push(
            Record::new("fleet.stage")
                .u64("stage", 0)
                .str("device", "NVIDIA K80")
                .str("fingerprint", "k80-fp")
                .f64("best_latency_s", 2e-3)
                .u64("trials", 40),
        );
        for device in ["NVIDIA K80", "NVIDIA T4", "NVIDIA A100"] {
            records.push(
                Record::new("fleet.eval").u64("stage", 0).str("device", device).f64("score", 0.5),
            );
        }
        records.push(Record::new("fleet.park").u64("stages_done", 1));
        let report = Report::from_records(&records);
        let fleet = report.fleet.clone().expect("fleet activity must be aggregated");
        assert_eq!(fleet.roster, 3);
        assert_eq!(fleet.pretrain_samples, 48);
        assert_eq!(fleet.stages, vec![("NVIDIA K80".to_string(), 2e-3)]);
        assert_eq!(fleet.evals, 3);
        assert!(fleet.parked && !fleet.completed);
        let text = report.render();
        assert!(text.contains("--- fleet ---"), "missing fleet section:\n{text}");
        assert!(text.contains("3 devices, 1 stages done"));
        assert!(text.contains("parked mid-roster"));
        // A resumed run that finishes flips the status.
        records.push(Record::new("fleet.resume").u64("stages_done", 1));
        records.push(Record::new("fleet.done").u64("stages", 3).u64("transfer_pairs", 9));
        let finished = Report::from_records(&records);
        let fleet = finished.fleet.as_ref().unwrap();
        assert_eq!(fleet.resumed_at, 1);
        assert!(fleet.completed);
        assert!(finished.render().contains("status               : completed"));
        // A fleet-less campaign renders no fleet section.
        assert!(!Report::from_records(&demo_records()).render().contains("fleet"));
    }

    #[test]
    fn empty_trace_renders_without_panicking() {
        let report = Report::from_records(&[]);
        assert_eq!(report.rounds, 0);
        assert!(report.render().contains("rounds"));
    }
}
