//! The benchmark's metric tables and the result a workload run produces.
//! `BENCHMARK.json` at the repository root lists exactly these names and
//! units (`--list` prints them so the two can be diffed).

use std::collections::BTreeMap;

/// How a metric is declared in `BENCHMARK.json`.
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// Allowed worsening of the median, as a share of the parent's
    /// median; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// End-to-end metrics: printed by every workload with `--trace 0`.
/// Every timing bound is the contract's ceiling: on the shared 2-vCPU host
/// this was sized on, the quartile spread of ten differently-seeded runs
/// reaches 22 % in a noisy quarter of an hour (see `perf/README.md`).
pub const END_TO_END: &[MetricDef] = &[
    e2e("wall_s", "s", "lower", 0.25),
    e2e("cpu_s", "s", "lower", 0.25),
    e2e("turn_p50_ms", "ms", "lower", 0.25),
    e2e("turn_p90_ms", "ms", "lower", 0.25),
    e2e("turns_per_s", "1/s", "higher", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
    e2e("sim_search_s", "s", "lower", 0.15),
];

/// Per-layer metrics: printed by every workload with `--trace 1`. A layer
/// that is not on a workload's path reports 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    layer("sketch.generate_cands_per_s", "1/s", "higher"),
    layer("sketch.dedup_cands_per_s", "1/s", "higher"),
    layer("sketch.dedup_keep_ratio", "ratio", "higher"),
    layer("sketch.stats_rows_per_s", "1/s", "higher"),
    layer("psa.prune_cands_per_s", "1/s", "higher"),
    layer("psa.keep_ratio", "ratio", "lower"),
    layer("psa.draft_verify_cost_ratio", "ratio", "higher"),
    layer("features.samples_per_s", "1/s", "higher"),
    layer("cost.predict_samples_per_s", "1/s", "higher"),
    layer("cost.fit_samples_per_s", "1/s", "higher"),
    layer("cost.fit_round_ms", "ms", "lower"),
    layer("nn.gemm_gflops", "gflop/s", "higher"),
    layer("gpu.sim_latency_per_s", "1/s", "higher"),
    layer("tuned_latency_us", "us", "lower"),
    layer("round_p90_ms", "ms", "lower"),
    layer("predict_p50_ms", "ms", "lower"),
    layer("predict_p99_ms", "ms", "lower"),
    layer("predict_per_s", "1/s", "higher"),
    layer("submit_to_done_s", "s", "lower"),
    layer("tuner.init_s", "s", "lower"),
    layer("tuner.propose_s", "s", "lower"),
    layer("tuner.measure_s", "s", "lower"),
    layer("tuner.train_s", "s", "lower"),
    layer("tuner.checkpoint_s", "s", "lower"),
    layer("tuner.train_share", "ratio", "lower"),
    layer("tuner.round_p50_ms", "ms", "lower"),
    layer("tuner.mtl_round_ms", "ms", "lower"),
    layer("tuner.checkpoint_save_ms", "ms", "lower"),
    layer("tuner.checkpoint_bytes", "bytes", "lower"),
    layer("tuner.checkpoint_load_ms", "ms", "lower"),
    layer("tuner.supervisor_overhead", "ratio", "lower"),
    layer("tuner.par_speedup", "ratio", "higher"),
    layer("tuner.allocs_per_round", "count", "lower"),
    layer("tuner.alloc_mb_per_round", "MB", "lower"),
    layer("tuner.sim_host_ratio_psa", "ratio", "higher"),
    layer("tuner.sim_host_ratio_model", "ratio", "higher"),
    layer("store.append_per_s", "1/s", "higher"),
    layer("store.flush_ms", "ms", "lower"),
    layer("store.open_records_per_s", "1/s", "higher"),
    layer("store.trials_saved_ratio", "ratio", "higher"),
    layer("trace.overhead", "ratio", "lower"),
    layer("trace.events_per_campaign", "count", "lower"),
    layer("trace.write_ms", "ms", "lower"),
    layer("json.parse_mb_per_s", "MB/s", "higher"),
    layer("json.write_mb_per_s", "MB/s", "higher"),
    layer("serve.wire_encode_us", "us", "lower"),
    layer("serve.wire_parse_us", "us", "lower"),
    layer("serve.batch_coalesce", "ratio", "higher"),
    layer("serve.submit_ack_ms", "ms", "lower"),
    layer("serve.status_ms", "ms", "lower"),
    layer("serve.predict_tail_ms", "ms", "lower"),
    layer("serve.daemon_start_ms", "ms", "lower"),
    layer("facade.build_ms", "ms", "lower"),
    layer("perf.span_overhead", "ratio", "lower"),
];

/// What one workload run produced.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (campaign reps; for `serve_mixed` every
    /// request and every campaign).
    pub attempted: u64,
    /// Operations that failed or failed a correctness check.
    pub failed: u64,
    /// Why, one line per failure.
    pub failures: Vec<String>,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable context lines (sample counts, span shares).
    pub notes: Vec<String>,
}

impl Report {
    /// Records a metric value.
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records one failed operation.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        self.failures.push(why.into());
    }

    /// Adds a context line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The contract's result line for the table `defs`. A declared metric
    /// the run did not measure is a bug for end-to-end tables and a
    /// "layer not on this path" zero for per-layer ones.
    pub fn result_line(&self, defs: &[MetricDef]) -> String {
        let metrics: Vec<String> = defs
            .iter()
            .map(|d| {
                let value = self.values.get(d.name).copied().unwrap_or(0.0);
                let value = if value.is_finite() { value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name, value, d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}
