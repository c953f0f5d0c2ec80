//! The shared evaluators behind [`EXPERIMENTS`](crate::EXPERIMENTS):
//! space quality, ranking, campaign grid, memory, simulator fidelity and
//! fleet. Each turns an entry's declared campaigns into the rows of its
//! result files.

use crate::table::{
    Col, Fidelity, Grid, Group, Method, Model, PoolSeed, Ranking, Run, Space, Targets,
};
use crate::{results_dir, scale, top_tasks, Experiment};
use pruner::cost::metrics::{
    best_k, kendall_tau, spearman, top_k, top_k_overlap, SpaceEval, TaskEval,
};
use pruner::cost::{AnsorModel, PacmModel, Sample, TensetMlpModel, TlpModel};
use pruner::dataset::Dataset;
use pruner::exec::{CpuExec, CpuExecConfig, TimerConfig};
use pruner::features::{FLOW_DIM, MAX_FLOW, MAX_STMTS, MAX_TOKENS, STMT_DIM, TLP_DIM};
use pruner::gpu::{vendor, Backend, GpuSpec, Simulator};
use pruner::ir::{zoo, Network, Workload};
use pruner::nn::Module;
use pruner::psa::Psa;
use pruner::sketch::{evolve, Program};
use pruner::tuner::fleet::FleetConfig;
use pruner::tuner::{pretrain_pacm, TunerConfig, TuningResult};
use pruner::{Fleet, Pruner};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Content, Serialize};
use std::collections::{BTreeMap, HashSet};

/// One result-file row: named fields in schema order.
type Row = Vec<(&'static str, Content)>;

/// Runs one entry and writes each of its result files under `results/`
/// through [`pruner::durable::write_atomic_durable`].
///
/// # Panics
/// Panics on I/O errors — a harness without its output is a failed run.
pub fn run(e: &Experiment) {
    let files = match &e.run {
        Run::Space(s) => vec![space(s)],
        Run::Ranking(r) => vec![ranking(r)],
        Run::Grid(g) => grid(g),
        Run::Memory => vec![memory()],
        Run::Fidelity(f) => vec![fidelity(f)],
        Run::Fleet { roster } => fleet(scale(*roster)),
    };
    assert_eq!(files.len(), e.files.len(), "{}: one row set per declared file", e.id);
    for (file, rows) in e.files.iter().zip(files) {
        let rows: Vec<Json> = rows.into_iter().map(Json).collect();
        let path = results_dir().join(format!("{}.json", file.name));
        let json = serde_json::to_string_pretty(&rows).expect("serialize result");
        pruner::durable::write_atomic_durable(&path, &json, None).expect("write result file");
        println!("[results written to {}]", path.display());
    }
}

/// A row serialized as a JSON object, fields in order.
struct Json(Row);

impl Serialize for Json {
    fn to_content(&self) -> Content {
        Content::Map(self.0.iter().map(|(k, v)| (k.to_string(), v.clone())).collect())
    }
}

fn c<T: Serialize>(v: T) -> Content {
    v.to_content()
}

fn spec(name: &str) -> GpuSpec {
    GpuSpec::by_name(name).unwrap_or_else(|| panic!("unknown platform `{name}`"))
}

/// A zoo network by short name, cut to its `top` heaviest subgraphs.
fn network(name: &str, top: usize) -> Network {
    top_tasks(&zoo::by_short_name(name, 1).expect("a zoo network"), top)
}

fn weighted(net: &Network) -> Vec<(Workload, u64)> {
    net.subgraphs().iter().map(|sg| (sg.workload.clone(), sg.weight)).collect()
}

// --- space quality (Tables 1, 4, 6) ---------------------------------------

/// One task's full candidate pool, priced: (weight, candidates, latencies).
type Pool = (u64, Vec<Program>, Vec<f64>);

/// One group of tasks priced on one platform: (label, platform, tasks).
type Tasks = (String, GpuSpec, Vec<(Workload, u64)>);

/// Best-1 of the PSA target space at each size, per group and PSA
/// variant; with `random` set (Table 1), Best-k of the target space
/// against equally sized random samples instead.
fn space(s: &Space) -> Vec<Row> {
    let groups: Vec<Tasks> = s.groups.iter().flat_map(group_tasks).collect();
    if let Some((ks, resamples)) = s.random {
        return space_vs_random(s, &groups, ks, scale(resamples));
    }
    let mut rows = Vec::new();
    for (label, spec, tasks) in &groups {
        let sim = Simulator::new(spec.clone());
        let pools = pools(s, &sim, tasks, 0);
        for (name, cfg) in s.psa {
            let psa = Psa::with_config(spec.clone(), *cfg);
            let best1 = |n| best_k(&target(&psa, &sim, &pools, n), 1);
            let series: Vec<(usize, f64)> = s.sizes.iter().map(|&n| (n, best1(n))).collect();
            // Several PSA variants over one group are rows per variant
            // (Table 4); one variant over several groups, rows per group.
            let key = if s.psa.len() > 1 { ("method", c(name)) } else { ("group", c(label)) };
            rows.push(vec![key, ("best1_by_size", c(series))]);
        }
    }
    rows
}

fn space_vs_random(s: &Space, groups: &[Tasks], ks: &[usize], resamples: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    for &size in s.sizes {
        let row = |network: Content, random: Vec<f64>, target: Vec<f64>| -> Row {
            vec![
                ("network", network),
                ("space_size", c(size)),
                ("random", c(random)),
                ("target", c(target)),
            ]
        };
        let (mut avg_random, mut avg_target) = (vec![0.0; ks.len()], vec![0.0; ks.len()]);
        for (label, spec, tasks) in groups {
            let sim = Simulator::new(spec.clone());
            let pools = pools(s, &sim, tasks, size);
            let spaces = target(&Psa::with_config(spec.clone(), s.psa[0].1), &sim, &pools, size);
            let target: Vec<f64> = ks.iter().map(|&k| best_k(&spaces, k)).collect();
            let mut rng = ChaCha8Rng::seed_from_u64(0xAB + size as u64);
            let mut random = vec![0.0; ks.len()];
            for _ in 0..resamples {
                let draw = |pool: &[Program], lats: &[f64]| {
                    (0..size).map(|_| lats[rng.gen_range(0..pool.len())]).collect()
                };
                let spaces = priced(&pools, draw);
                for (acc, &k) in random.iter_mut().zip(ks) {
                    *acc += best_k(&spaces, k);
                }
            }
            let random: Vec<f64> = random.iter().map(|v| v / resamples as f64).collect();
            for i in 0..ks.len() {
                avg_random[i] += random[i] / groups.len() as f64;
                avg_target[i] += target[i] / groups.len() as f64;
            }
            rows.push(row(c(label), random, target));
        }
        rows.push(row(c(format!("Avg-{size}")), avg_random, avg_target));
    }
    rows
}

/// Each task's full pool, priced; pools smaller than the entry's floor
/// (the target `size` when the floor is 0) carry no pruning signal and
/// are skipped.
fn pools(s: &Space, sim: &Simulator, tasks: &[(Workload, u64)], size: usize) -> Vec<Pool> {
    let floor = if s.min_pool == 0 { size } else { s.min_pool };
    let mut out = Vec::new();
    for (wl, weight) in tasks {
        let key = wl.key();
        let seed = match s.seed {
            PoolSeed::KeyLen => size as u64 ^ (key.len() as u64 * 7919),
            PoolSeed::KeyBytes(salt) => key.bytes().map(u64::from).sum::<u64>() ^ salt,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let pool = evolve::init_population(wl, scale(s.pool), &sim.spec().limits(), &mut rng);
        if pool.len() >= floor {
            let lats = pool.iter().map(|p| sim.latency(p)).collect();
            out.push((*weight, pool, lats));
        }
    }
    out
}

/// Every pool's optimum against the latencies `pick` selects from it.
fn priced(pools: &[Pool], mut pick: impl FnMut(&[Program], &[f64]) -> Vec<f64>) -> Vec<SpaceEval> {
    let space = |(w, pool, lats): &Pool| SpaceEval {
        weight: *w,
        full_optimum: lats.iter().cloned().fold(f64::INFINITY, f64::min),
        space_latencies: pick(pool, lats),
    };
    pools.iter().map(space).collect()
}

/// The PSA target space of `size` out of every pool, priced.
fn target(psa: &Psa, sim: &Simulator, pools: &[Pool], size: usize) -> Vec<SpaceEval> {
    priced(pools, |pool, _| psa.prune(pool.to_vec(), size).iter().map(|p| sim.latency(p)).collect())
}

fn group_tasks(group: &Group) -> Vec<Tasks> {
    match *group {
        Group::Networks { platforms, networks, top, tagged } => {
            let mut out = Vec::new();
            for spec in platforms.iter().map(|p| spec(p)) {
                for net in networks.iter().map(|n| network(n, top)) {
                    let name = net.name().to_string();
                    let label = if tagged { format!("{name}@{}", spec.name) } else { name };
                    out.push((label, spec.clone(), weighted(&net)));
                }
            }
            out
        }
        Group::Pooled { platform, networks, top } => {
            let tasks = networks.iter().flat_map(|n| weighted(&network(n, top)));
            vec![(String::new(), spec(platform), tasks.collect())]
        }
        Group::Operators { platform, take, suites } => {
            let ops =
                |suite: fn() -> Vec<Workload>| suite().into_iter().take(scale((take, usize::MAX)));
            let group = |(label, suite): &(&str, _)| {
                (label.to_string(), spec(platform), ops(*suite).map(|w| (w, 1)).collect())
            };
            suites.iter().map(group).collect()
        }
    }
}

// --- ranking (Table 2, Figure 6) ------------------------------------------

/// Top-k of cost models trained on a Tenset-style offline corpus and
/// evaluated on held-out subgraphs, averaged over seeds. With training
/// sizes given (Figure 6), the training subgraphs are truncated to each
/// size while the test side keeps its full spaces.
fn ranking(r: &Ranking) -> Vec<Row> {
    let (epochs, seeds, sizes) = (scale(r.epochs), scale(r.seeds), scale(r.train_sizes));
    let mut rows = Vec::new();
    for spec in r.platforms.iter().map(|p| spec(p)) {
        let nets = pruner::dataset::table1_networks();
        let data = Dataset::generate(&spec, &nets, scale(r.programs), 11);
        let (train, test) = data.split(0.8, 3);
        let trains: Vec<(Option<usize>, Vec<Sample>)> = match sizes {
            [] => vec![(None, train)],
            _ => sizes.iter().map(|&n| (Some(n), data.truncated(n).split(0.8, 3).0)).collect(),
        };
        for (size, train) in &trains {
            for kind in r.models {
                let (mut top, mut name) = (vec![0.0; r.ks.len()], "");
                for &seed in seeds {
                    let mut model = kind.build(seed);
                    model.fit_batch(train, epochs, 1);
                    let tasks = by_task(&model.predict_batch(&test, 1), &test);
                    for (acc, (k, _)) in top.iter_mut().zip(r.ks) {
                        *acc += top_k(&tasks, *k) / seeds.len() as f64;
                    }
                    name = model.name();
                }
                let mut row = vec![("method", c(name))];
                match size {
                    None => row.push(("platform", c(&spec.name))),
                    Some(n) => row.extend([
                        ("programs_per_subgraph", c(n)),
                        ("train_programs", c(train.len())),
                    ]),
                }
                row.extend(r.ks.iter().zip(top).map(|((_, field), v)| (*field, c(v))));
                rows.push(row);
            }
        }
    }
    rows
}

/// Groups test samples into per-task `TaskEval`s using the model's scores.
fn by_task(scores: &[f32], test: &[Sample]) -> Vec<TaskEval> {
    let mut tasks: BTreeMap<usize, TaskEval> = BTreeMap::new();
    for (s, &score) in test.iter().zip(scores) {
        let new = || TaskEval { weight: 1, latencies: Vec::new(), scores: Vec::new() };
        let e = tasks.entry(s.task_id).or_insert_with(new);
        e.latencies.push(s.latency);
        e.scores.push(score);
    }
    tasks.into_values().filter(|t| t.latencies.len() >= 5).collect()
}

// --- campaign grid (Figures 7-10, 13; Tables 3, 5; extra ablations) -------

/// Runs every method at every seed on every target of every platform,
/// then lays the results out as each declared file's rows.
fn grid(g: &Grid) -> Vec<Vec<Row>> {
    let methods: Vec<(&Method, &[u64])> =
        g.runs.iter().flat_map(|(ms, seeds)| ms.iter().map(move |m| (m, *seeds))).collect();
    let uses = |f: fn(&Model) -> bool| methods.iter().any(|(m, _)| f(&m.model));
    // The K80 pre-training corpus (the "K80-6M TensetGPUs" stand-in) needs
    // a representative of every operator family the targets contain (wide
    // GEMMs included), or the Siamese prior misleads.
    let pretrained = uses(|m| matches!(m, Model::Mtl(_))).then(|| {
        let (progs, epochs) = scale(((48, 10), (96, 16)));
        let nets = ["R-50", "MB-V2", "B-base", "B-tiny"]
            .map(|n| zoo::by_short_name(n, 1).expect("a zoo network"));
        pretrain_pacm(&Dataset::generate(&GpuSpec::k80(), &nets, progs, 0).to_samples(), epochs, 0)
    });
    let mut files = vec![Vec::new(); g.layouts.len()];
    for spec in scale(g.platforms).iter().map(|p| spec(p)) {
        let sim = Simulator::new(spec.clone());
        // The platform's offline corpus (the paper's 500k-program corpora).
        let corpus = uses(|m| matches!(m, Model::Offline(_))).then(|| {
            let nets = [zoo::resnet50(1), zoo::vit(1), zoo::bert_base(1, 128)];
            Dataset::generate(&spec, &nets, scale((64, 128)), 31).to_samples()
        });
        for (ti, (group, target)) in targets(&g.targets).iter().enumerate() {
            println!("  {} on {} ...", target.name(), spec.name);
            let campaigns = |(m, seeds): &(&Method, &[u64])| -> Vec<TuningResult> {
                seeds
                    .iter()
                    .map(|&seed| campaign(&spec, target, m, seed, g.budget, &pretrained, &corpus))
                    .collect()
            };
            let results: Vec<Vec<TuningResult>> = methods.iter().map(campaigns).collect();
            let wl = &target.subgraphs()[0].workload;
            let cell = |col: &Col, mi: Option<usize>| -> Content {
                let at = |i: Option<usize>| i.or(mi).expect("a per-method column");
                let first = |i: Option<usize>| &results[at(i)][0];
                match *col {
                    Col::Platform => c(&spec.name),
                    Col::Group => c(group),
                    Col::Target => c(target.name()),
                    Col::Method => c(methods[at(None)].0.label),
                    Col::KnobValue => match methods[at(None)].0 {
                        Method { epsilon: Some(epsilon), .. } => c(epsilon),
                        Method { model: Model::Mtl(momentum), .. } => c(*momentum as f64),
                        _ => Content::Null,
                    },
                    Col::FinalMs(i) => {
                        let rs = &results[at(i)];
                        c(rs.iter()
                            .fold(0.0, |acc, r| acc + r.best_latency_s * 1e3 / rs.len() as f64))
                    }
                    Col::TotalS(i) => c(first(i).stats.total_s()),
                    Col::Minutes(i) => c(first(Some(i)).stats.total_s() / 60.0),
                    Col::Curve => {
                        let points = first(None).curve.points();
                        let every = points.iter().step_by((points.len() / 40).max(1));
                        c(every
                            .map(|p| (p.trials, p.search_time_s, p.best_latency_s))
                            .collect::<Vec<_>>())
                    }
                    Col::Speedup(i, vs) => {
                        let (r, base) = (first(Some(i)), first(Some(vs)));
                        c(r.curve
                            .time_to_reach(base.best_latency_s)
                            .map(|t| base.stats.total_s() / t))
                    }
                    Col::VendorMs => c(vendor::vendor_latency(&spec, wl) * 1e3),
                    Col::Gflops => c(wl.flops() / 1e9),
                    Col::RooflineMs => c(sim.roofline(wl) * 1e3),
                    Col::RooflineFrac => c(sim.roofline(wl) / first(Some(0)).best_latency_s),
                }
            };
            for (layout, rows) in g.layouts.iter().zip(&mut files) {
                let per: Vec<Option<usize>> = match layout.per_method {
                    true => (0..methods.len()).map(Some).collect(),
                    false => vec![None],
                };
                if ti == 0 || !layout.first_target_only {
                    rows.extend(per.into_iter().map(|mi| {
                        layout.cols.iter().map(|(n, col)| (*n, cell(col, mi))).collect()
                    }));
                }
            }
        }
    }
    files
}

/// The grid's targets: (group label, network). A single operator is a
/// one-subgraph network named after the workload.
fn targets(t: &Targets) -> Vec<(&'static str, Network)> {
    match *t {
        Targets::Networks { quick, full, top } => {
            scale((quick, full)).iter().map(|n| ("", network(n, top))).collect()
        }
        Targets::Operators(sets) => {
            let mut out = Vec::new();
            for &(group, quick, full) in sets {
                for wl in scale((quick, full))() {
                    let mut net = Network::new(wl.to_string());
                    net.add(wl, 1);
                    out.push((group, net));
                }
            }
            out
        }
    }
}

/// One tuning campaign: the budget (paper defaults at full scale unless
/// the entry declares its own), the method's model set-up and the seed.
fn campaign(
    spec: &GpuSpec,
    target: &Network,
    m: &Method,
    seed: u64,
    (quick, full): ((usize, usize), Option<(usize, usize)>),
    pretrained: &Option<PacmModel>,
    corpus: &Option<Vec<Sample>>,
) -> TuningResult {
    let mut cfg = TunerConfig { seed, use_psa: m.psa, ..TunerConfig::default() };
    if let Some((rounds, space)) = scale((Some(quick), full)) {
        let space = m.space.unwrap_or(space);
        (cfg.rounds, cfg.space_size, cfg.target_pool) = (rounds, space, 4 * space);
    }
    cfg.epsilon = m.epsilon.unwrap_or(cfg.epsilon);
    let builder = Pruner::builder(spec.clone()).network(target).config(cfg);
    let builder = match m.model {
        Model::Fresh(kind) => builder.model(kind),
        Model::Mtl(momentum) => {
            builder.with_mtl_momentum(pretrained.clone().expect("pre-trained"), momentum)
        }
        Model::Offline(kind) => {
            // Pre-trained on the target platform's offline corpus.
            let mut model = kind.build(17);
            model.fit_batch(corpus.as_deref().expect("corpus"), scale((15, 25)), 1);
            builder.offline_model(model)
        }
    };
    builder.build().tune()
}

// --- memory (§3.3) ---------------------------------------------------------

/// Cost-model memory at inference batch 4096: weights plus the activation
/// bytes of one batched forward pass, counted layer by layer.
fn memory() -> Vec<Row> {
    // Floats per sample. Statement path: [S, 32] -> [S, 128] -> [S, 128]
    // -> pool 128; PaCM's data-flow path: [F, 23] -> [F, 32] -> attention
    // (q, k, v, scores[F], ctx) -> pool 32; TLP: two attention blocks over
    // 12 tokens (q/k/v/scores/ctx plus residuals); then each model's head.
    let stmt = MAX_STMTS * (STMT_DIM + 128 + 128) + 128;
    let flow = MAX_FLOW * (FLOW_DIM + 32 * 4 + MAX_FLOW + 16) + 32;
    let tlp = MAX_TOKENS * (TLP_DIM + 32) + 2 * MAX_TOKENS * (32 * 4 + MAX_TOKENS + 32);
    let models = [
        ("TensetMLP", TensetMlpModel::new(0).num_weights(), stmt + 64 + 1),
        ("TLP", TlpModel::new(0).num_weights(), tlp + 32 + 64 + 1),
        ("PaCM", PacmModel::new(0).num_weights(), stmt + flow + 160 + 64 + 1),
        ("Ansor", AnsorModel::new(0).num_weights(), STMT_DIM + 64 + 64 + 1),
    ];
    let mb = |floats: usize| (floats * 4) as f64 / (1024.0 * 1024.0);
    let row = |(method, weights, floats): (&str, usize, usize)| -> Row {
        let act = mb(4096 * floats);
        let total = ("total_mb", c(act + mb(weights)));
        vec![("method", c(method)), ("weights", c(weights)), ("activation_mb", c(act)), total]
    };
    models.into_iter().map(row).collect()
}

// --- simulator fidelity (docs/FIDELITY.md) ---------------------------------

/// Rank agreement of simulated latency with measured wall time: one row
/// for the GEMM size sweep, then one per operator over its sampled
/// schedules. Wall time is host-dependent, so the rows are not
/// reproducible byte for byte.
///
/// # Panics
/// Panics when the size sweep's Spearman ρ falls below the entry's floor.
fn fidelity(f: &Fidelity) -> Vec<Row> {
    let spec = spec(f.platform);
    let sim = Simulator::new(spec.clone());
    // Two threads and long timing windows: fidelity wants quiet timings,
    // not throughput.
    let timer = TimerConfig { samples: 5, min_window_s: 2e-4, ..TimerConfig::default() };
    let cpu = CpuExec::with_config(spec.clone(), CpuExecConfig { threads: 2, timer });
    let priced = |progs: &[Program]| -> (Vec<f64>, Vec<f64>) {
        progs.iter().map(|p| (sim.latency(p), cpu.latency(p))).unzip()
    };
    let row = |workload: String, (sim_lat, cpu_lat): (Vec<f64>, Vec<f64>)| -> Row {
        let k = (sim_lat.len() / 4).max(3).min(sim_lat.len());
        vec![
            ("workload", c(workload)),
            ("candidates", c(sim_lat.len())),
            ("spearman", c(spearman(&sim_lat, &cpu_lat))),
            ("kendall", c(kendall_tau(&sim_lat, &cpu_lat))),
            ("top_k", c(k)),
            ("top_k_overlap", c(top_k_overlap(&sim_lat, &cpu_lat, k))),
        ]
    };
    // One fixed schedule per size, the fallback program, so the sizes
    // compare like for like.
    let sweep: Vec<Program> =
        f.sizes.iter().map(|&n| Program::fallback(&Workload::matmul(1, n, n, n))).collect();
    let (sim_lat, cpu_lat) = priced(&sweep);
    let rho = spearman(&sim_lat, &cpu_lat);
    assert!(rho >= f.floor, "size-sweep fidelity collapsed: ρ = {rho:.2} < {}", f.floor);
    let mut rows = vec![row("size sweep".into(), (sim_lat, cpu_lat))];
    let (candidates, limits) = (scale(f.candidates), spec.limits());
    for wl in (f.operators)() {
        println!("  {} on {} ...", wl.key(), spec.name);
        // Distinct schedules only: duplicates would inflate agreement
        // through tied ranks. The draw budget bounds a workload that has
        // fewer distinct schedules than the pool asks for.
        let (mut rng, mut seen) = (ChaCha8Rng::seed_from_u64(6), HashSet::new());
        let progs: Vec<Program> = (0..candidates * 64)
            .map(|_| Program::sample(&wl, &limits, &mut rng))
            .filter(|p| seen.insert(p.dedup_key()))
            .take(candidates)
            .collect();
        rows.push(row(wl.key(), priced(&progs)));
    }
    rows
}

// --- fleet (docs/FLEET.md) -------------------------------------------------

/// One fleet over the roster's platforms, in order, tuning a GEMM and a
/// convolution: per device its best latency, pre-trained baseline and
/// forgetting ledger; then every (stage, trained-on, evaluated) transfer
/// cell.
/// The fleet's state lives in a per-process scratch directory that is
/// removed when the run ends.
fn fleet(roster: &[&str]) -> Vec<Vec<Row>> {
    let dir = std::env::temp_dir().join(format!("pruner-fleet-experiment-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = FleetConfig::quick(roster.iter().map(|p| spec(p)).collect(), dir.clone());
    cfg.workloads = vec![
        (Workload::matmul(1, 128, 128, 128), 2),
        (Workload::conv2d(1, 16, 14, 14, 32, 3, 1, 1), 1),
    ];
    cfg.tuner = TunerConfig {
        rounds: 10,
        measure_per_round: 8,
        space_size: 64,
        target_pool: 128,
        train_epochs: 1,
        mtl_epochs: 2,
        ..TunerConfig::quick()
    };
    (cfg.pretrain_per_workload, cfg.pretrain_epochs, cfg.probes_per_workload) = (48, 4, 32);
    let run = Fleet::new(cfg).run();
    let _ = std::fs::remove_dir_all(&dir);
    let result = run.expect("fleet run").result.expect("roster completed");
    let report = &result.report;
    let devices = result.devices.iter().zip(&report.forgetting).map(|(d, f)| {
        vec![
            ("device", c(&d.name)),
            ("best_ms", c(d.best_latency_s * 1e3)),
            ("baseline", c(report.baseline[d.stage])),
            ("score_after_training", c(f.score_after_training)),
            ("final_score", c(f.final_score)),
            ("delta", c(f.delta)),
        ]
    });
    let transfer = report.transfer.iter().map(|t| {
        vec![
            ("stage", c(t.stage)),
            ("trained_on", c(&t.trained_on)),
            ("evaluated", c(&t.evaluated)),
            ("score", c(t.score)),
            ("delta_vs_baseline", c(t.delta_vs_baseline)),
        ]
    });
    vec![devices.collect(), transfer.collect()]
}
