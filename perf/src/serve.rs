//! `serve_mixed`: the resident daemon under a closed loop of two clients.
//!
//! Closed loop because daemon callers are tuners blocking on replies: a
//! slower daemon is offered less load. The client count is fixed at 2, so
//! the numbers are throughput and latency *at that concurrency*, not a
//! rate sweep.

use crate::host::{self, Obs};
use crate::layers as sys;
use crate::replay;
use crate::report::Report;
use crate::workloads::{derive, Cx};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const ROUNDS: usize = 20;
const POOLS: usize = 8;
const POOL_SIZE: usize = 64;
const MIN_CAMPAIGNS: usize = 6;

fn shapes() -> [sys::Workload; 3] {
    [
        sys::matmul(1, 256, 256, 256),
        sys::matmul(1, 256, 256, 512),
        sys::matmul(1, 256, 256, 1024),
    ]
}

/// The scoring pools (`POOLS` batches of `POOL_SIZE` programs over the
/// three shapes) and the scores a direct `predict_batch` gives them.
fn predict_pools(seed: u64) -> (Vec<Vec<sys::Program>>, Vec<Vec<f32>>) {
    let limits = sys::limits(&sys::spec_t4());
    let model = sys::named_pacm();
    let shapes = shapes();
    let pools: Vec<Vec<sys::Program>> = (0..POOLS)
        .map(|i| {
            sys::sample_programs(
                &shapes[i % 3],
                &limits,
                POOL_SIZE,
                derive(seed, 100 + i as u64),
            )
        })
        .collect();
    let expected = pools
        .iter()
        .map(|pool| sys::predict(model.as_ref(), &sys::featurize_programs(pool), 1))
        .collect();
    (pools, expected)
}

fn same_scores(got: &[f32], expected: &[f32]) -> bool {
    got.len() == expected.len()
        && got
            .iter()
            .zip(expected)
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

/// What client B measured.
struct PredictLog {
    latencies_ms: Vec<f64>,
    spans: Vec<(Instant, Instant)>,
    failures: Vec<String>,
}

/// One campaign as client A saw it.
struct CampaignLog {
    shape: usize,
    submit_to_done_s: f64,
    result: sys::TuningResult,
}

/// Runs `serve_mixed`.
pub fn run(cx: &Cx) -> (Report, Obs) {
    let mut report = Report::default();
    let mut obs = Obs::new(cx.trace);
    if let Err(why) = script(cx, &mut report, &mut obs) {
        report.attempted += 1;
        report.fail(why);
    }
    (report, obs)
}

fn script(cx: &Cx, report: &mut Report, obs: &mut Obs) -> Result<(), String> {
    let io = |e: std::io::Error| e.to_string();
    let t_setup = Instant::now();
    let spec = sys::spec_t4();
    let shapes = shapes();
    let configs: Vec<sys::TunerConfig> = (0..3)
        .map(|i| sys::TunerConfig {
            rounds: ROUNDS,
            threads: 1,
            seed: derive(cx.seed, 10 + i as u64),
            ..sys::default_config()
        })
        .collect();
    // Daemon-vs-one-shot references: the same submissions through the
    // facade in this process.
    let references: Vec<String> = (0..3)
        .map(|i| {
            let campaign =
                sys::Campaign::plain(spec.clone(), sys::Tasks::Op(shapes[i].clone()), configs[i]);
            sys::result_bytes(&sys::tune(campaign.builder(1)))
        })
        .collect();
    let (pools, expected) = predict_pools(cx.seed);
    let requests: Vec<sys::Request> = pools
        .iter()
        .map(|pool| sys::predict_request(pool))
        .collect();

    let socket = cx.dir.join("d.sock");
    let state_dir = cx.dir.join("state");
    let daemon = sys::daemon_start(&socket, &state_dir).map_err(io)?;
    let mut client_a = sys::client_connect(&socket).map_err(io)?;
    let mut client_b = sys::client_connect(&socket).map_err(io)?;
    // Warm the named model and both connections before timing.
    sys::client_call(&mut client_b, &requests[0]).map_err(io)?;
    let setup_s = t_setup.elapsed().as_secs_f64();

    let done = AtomicBool::new(false);
    let mut submit_ack_ms = Vec::new();
    let mut status_ms = Vec::new();
    let mut campaigns: Vec<CampaignLog> = Vec::new();
    let mut requests_a = 0u64;
    let mut failures_a: Vec<String> = Vec::new();
    let cpu0 = host::cpu_seconds();
    let started = Instant::now();
    obs.begin_op(0);

    let predict_log = std::thread::scope(|scope| {
        // Client B: PredictOnly back-to-back until A's campaigns are done.
        let b = scope.spawn(|| {
            let mut log = PredictLog {
                latencies_ms: Vec::new(),
                spans: Vec::new(),
                failures: Vec::new(),
            };
            let mut call = 0usize;
            while !done.load(Ordering::SeqCst) {
                let t0 = Instant::now();
                let response = sys::client_call(&mut client_b, &requests[call % POOLS]);
                let t1 = Instant::now();
                log.latencies_ms
                    .push(t1.duration_since(t0).as_secs_f64() * 1e3);
                log.spans.push((t0, t1));
                match response {
                    Ok(sys::Response::Scores { scores })
                        if same_scores(&scores, &expected[call % POOLS]) => {}
                    Ok(sys::Response::Scores { .. }) => log.failures.push(format!(
                        "predict {call}: wire scores differ from direct predict_batch"
                    )),
                    Ok(other) => log
                        .failures
                        .push(format!("predict {call}: unexpected reply {other:?}")),
                    Err(e) => log.failures.push(format!("predict {call}: {e}")),
                }
                call += 1;
            }
            log
        });

        // Client A: campaigns one after another, whole shape cycles, until
        // the time budget is spent.
        for i in 0.. {
            if i % 3 == 0 && i >= MIN_CAMPAIGNS && started.elapsed().as_secs_f64() >= cx.seconds {
                break;
            }
            let shape = i % 3;
            let tenant = format!("tenant{}", (i / 3) % 3);
            let submit = sys::submit_request(&tenant, &spec, &shapes[shape], configs[shape]);
            let t0 = Instant::now();
            let reply = sys::client_call(&mut client_a, &submit);
            let t1 = Instant::now();
            requests_a += 1;
            obs.span("submit", t0, t1);
            submit_ack_ms.push(t1.duration_since(t0).as_secs_f64() * 1e3);
            let id = match reply {
                Ok(sys::Response::Submitted { campaign }) => campaign,
                other => {
                    failures_a.push(format!("campaign {i}: submit answered {other:?}"));
                    break;
                }
            };
            let status = sys::status_request(&id);
            loop {
                std::thread::sleep(Duration::from_millis(5));
                let s0 = Instant::now();
                let reply = sys::client_call(&mut client_a, &status);
                let s1 = Instant::now();
                requests_a += 1;
                obs.span("status", s0, s1);
                status_ms.push(s1.duration_since(s0).as_secs_f64() * 1e3);
                match reply {
                    Ok(sys::Response::Status {
                        state,
                        result: Some(result),
                        ..
                    }) if state == "done" => {
                        let submit_to_done_s = s1.duration_since(t0).as_secs_f64();
                        obs.span("campaign", t0, s1);
                        if result != references[shape] {
                            failures_a.push(format!(
                                "campaign {id}: daemon result differs from one-shot"
                            ));
                        }
                        match sys::parse_result(&result) {
                            Some(result) => campaigns.push(CampaignLog {
                                shape,
                                submit_to_done_s,
                                result,
                            }),
                            None => {
                                failures_a.push(format!("campaign {id}: result does not parse"))
                            }
                        }
                        break;
                    }
                    Ok(sys::Response::Status { state, .. })
                        if state == "queued" || state == "running" => {}
                    other => {
                        failures_a.push(format!("campaign {id}: status answered {other:?}"));
                        break;
                    }
                }
            }
            if !failures_a.is_empty() {
                break;
            }
        }
        done.store(true, Ordering::SeqCst);
        b.join().expect("client B does not panic")
    });
    let script_end = Instant::now();
    let script_wall = script_end.duration_since(started).as_secs_f64();
    let script_cpu = host::cpu_seconds() - cpu0;
    for (t0, t1) in &predict_log.spans {
        obs.span("predict", *t0, *t1);
    }
    obs.end_op("script", started, script_end);
    drop((client_a, client_b));
    sys::daemon_shutdown(daemon).map_err(io)?;

    // One op = each request and each campaign.
    report.attempted = requests_a + predict_log.latencies_ms.len() as u64 + campaigns.len() as u64;
    for why in failures_a.into_iter().chain(predict_log.failures) {
        report.fail(why);
    }
    if campaigns.is_empty() || predict_log.latencies_ms.is_empty() {
        return Err("the script completed no campaign or no predict request".to_string());
    }

    let n = campaigns.len() as f64;
    let per_shape = |f: &dyn Fn(&CampaignLog) -> f64| -> Vec<f64> {
        (0..3)
            .map(|s| {
                host::median(
                    &campaigns
                        .iter()
                        .filter(|c| c.shape == s)
                        .map(f)
                        .collect::<Vec<_>>(),
                )
            })
            .collect()
    };
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let tail = host::supported_tail(&predict_log.latencies_ms);
    if cx.trace {
        // Exact and deterministic per seed (geometric mean over the three
        // shapes): compare between two commits at the same --seed.
        let best = per_shape(&|c| c.result.best_latency_s);
        report.put(
            "tuned_latency_us",
            (best.iter().map(|b| b.ln()).sum::<f64>() / 3.0).exp() * 1e6,
        );
        report.put("serve.submit_ack_ms", host::median(&submit_ack_ms));
        report.put("serve.status_ms", host::median(&status_ms));
        report.put("serve.predict_tail_ms", tail.0);
        report.put("predict_p50_ms", host::median(&predict_log.latencies_ms));
        report.put(
            "predict_p99_ms",
            host::percentile(&predict_log.latencies_ms, 99.0),
        );
        report.put(
            "predict_per_s",
            predict_log.latencies_ms.len() as f64 / script_wall,
        );
        report.put(
            "submit_to_done_s",
            mean(&per_shape(&|c| c.submit_to_done_s)),
        );
        let per_round_ms: Vec<f64> = campaigns
            .iter()
            .map(|c| c.submit_to_done_s / ROUNDS as f64 * 1e3)
            .collect();
        report.put("round_p90_ms", host::percentile(&per_round_ms, 90.0));
        report.note(format!(
            "serve.predict_tail_ms is p{:.2} of n={} (ten samples beyond it)",
            tail.1,
            predict_log.latencies_ms.len()
        ));
        // A restart over the state the script left: every campaign is
        // finished, so this is the scan plus the store open.
        let t0 = Instant::now();
        let restarted = sys::daemon_start(&socket, &state_dir).map_err(io)?;
        report.put("serve.daemon_start_ms", t0.elapsed().as_secs_f64() * 1e3);
        sys::daemon_shutdown(restarted).map_err(io)?;
        report.note("layer metrics outside serve.* client calls are REPLAY numbers: same sizes, outside the daemon");
        let shape = replay::ReplayShape::of(&spec, &shapes[1], &configs[1], 1);
        replay::pipeline(&shape, derive(cx.seed, 6), report);
        replay::store(&spec, 2000, 400, derive(cx.seed, 7), &cx.dir, report);
        replay::serve_codec(&spec, &shapes[1], derive(cx.seed, 8), report);
        replay::facade_build(report);
        return Ok(());
    }
    // One op is one campaign as its submitter sees it (submit -> done);
    // a turn is one PredictOnly round trip.
    report.put("wall_s", mean(&per_shape(&|c| c.submit_to_done_s)));
    report.put("cpu_s", script_cpu / n);
    report.put("turn_p50_ms", host::median(&predict_log.latencies_ms));
    report.put(
        "turn_p90_ms",
        host::percentile(&predict_log.latencies_ms, 90.0),
    );
    report.put(
        "turns_per_s",
        predict_log.latencies_ms.len() as f64 / script_wall,
    );
    report.put("setup_s", setup_s);
    report.put(
        "sim_search_s",
        mean(&per_shape(&|c| sys::sim_total_s(&c.result))),
    );
    report.put("peak_rss_mb", host::peak_rss_mb());
    report.note(format!(
        "campaigns={} predict_n={} status_polls={} (closed loop, 2 clients)",
        campaigns.len(),
        predict_log.latencies_ms.len(),
        status_ms.len()
    ));
    Ok(())
}
