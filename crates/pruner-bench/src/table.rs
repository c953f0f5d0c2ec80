//! [`EXPERIMENTS`]: every table and figure of the paper's evaluation as
//! data — the campaigns that regenerate it, the files they write and the
//! paper's shape claims with the verdict the committed results give.
//! Pairs are `(quick, full)` values; `PRUNER_BENCH_FULL=1` picks the second.

use crate::check::{Claim, Order, Shape, Verdict};
use pruner::cost::ModelKind;
use pruner::ir::{suites, EwKind, Workload};
use pruner::psa::PsaConfig;
use Order::{Higher, Lower};
use Verdict::{Flipped, Holds};

/// One experiment: its runner id (`--bench experiments -- <id>`), what it
/// measures and where, the campaigns that run through one evaluator, the
/// files they write (in the evaluator's order) and the paper's shape
/// claims, judged on the first file.
#[derive(Debug)]
pub struct Experiment {
    /// The runner id.
    pub id: &'static str,
    /// What it measures, and where.
    pub metric: &'static str,
    pub(crate) run: Run,
    pub(crate) files: &'static [File],
    /// The paper's shape claims.
    pub claims: &'static [Claim],
}

/// One results file and how the checker reads it.
#[derive(Debug)]
pub(crate) struct File {
    /// `results/<name>.json`.
    pub(crate) name: &'static str,
    /// How many leading fields of a row identify it.
    pub(crate) keys: usize,
    /// Names for the positions of plain number arrays (else the index).
    pub(crate) axis: &'static [&'static str],
    /// For tuning curves: the method whose final latency `parity_s`
    /// measures the time to reach.
    pub(crate) parity: Option<&'static str>,
}

const fn file(name: &'static str, keys: usize) -> File {
    File { name, keys, axis: &[], parity: None }
}

/// An entry's campaigns, by evaluator; `Memory` is the cost models'
/// memory at inference batch 4096, and `Fleet` tunes the roster's
/// platforms in order as one cross-hardware fleet (docs/FLEET.md).
#[derive(Debug)]
pub(crate) enum Run {
    Space(Space),
    Ranking(Ranking),
    Grid(Grid),
    Memory,
    Fidelity(Fidelity),
    Fleet { roster: (&'static [&'static str], &'static [&'static str]) },
}

/// Simulator fidelity (docs/FIDELITY.md): rank agreement between the
/// simulated latency on `platform` and the host wall time of running the
/// program — across the fallback schedules of the GEMM `sizes` (Spearman
/// ρ asserted to be at least `floor`), and within each of the `operators`
/// over up to `candidates` distinct sampled schedules.
#[derive(Debug)]
pub(crate) struct Fidelity {
    pub(crate) platform: &'static str,
    pub(crate) sizes: &'static [u64],
    pub(crate) floor: f64,
    pub(crate) operators: Suite,
    pub(crate) candidates: (usize, usize),
}

/// Search-space quality (Tables 1, 4, 6): Best-1 of the target space of
/// each size for each labelled PSA variant, over the `groups`' task pools
/// of `pool` candidates, seeded by `seed`. Pools under `min_pool` (0: the
/// target size) are skipped. Table 1 sets `random`: Best-k at these k,
/// target space against this many equally sized random resamples.
#[derive(Debug)]
pub(crate) struct Space {
    pub(crate) groups: &'static [Group],
    pub(crate) pool: (usize, usize),
    pub(crate) seed: PoolSeed,
    pub(crate) min_pool: usize,
    pub(crate) sizes: &'static [usize],
    pub(crate) psa: &'static [(&'static str, PsaConfig)],
    pub(crate) random: Option<(&'static [usize], (usize, usize))>,
}

/// A space-quality task group; `top` keeps a network's heaviest
/// subgraphs (all of them at full scale).
#[derive(Debug)]
pub(crate) enum Group {
    /// One group per network and platform, labelled `net@platform` when
    /// `tagged`.
    Networks {
        platforms: &'static [&'static str],
        networks: &'static [&'static str],
        top: usize,
        tagged: bool,
    },
    /// Every network's heaviest subgraphs as one group.
    Pooled { platform: &'static str, networks: &'static [&'static str], top: usize },
    /// One group per labelled suite: its first `take` operators (all at
    /// full scale), weight 1.
    Operators { platform: &'static str, take: usize, suites: &'static [(&'static str, Suite)] },
}

/// A list of operators, built on demand.
pub(crate) type Suite = fn() -> Vec<Workload>;

/// How a task pool's RNG is seeded from the workload key.
#[derive(Debug, Clone, Copy)]
pub(crate) enum PoolSeed {
    /// `size ^ 7919·len(key)`: a fresh pool per target size.
    KeyLen,
    /// The key's byte sum, xor a salt: one pool for every size.
    KeyBytes(u64),
}

/// Cost-model ranking (Table 2, Figure 6): each model trained for
/// `epochs` on a corpus of `programs` per subgraph on each platform, its
/// Top-k (k with its field name) averaged over `seeds`. Figure 6 truncates
/// the training subgraphs to each of `train_sizes`; empty trains on the
/// whole split.
#[derive(Debug)]
pub(crate) struct Ranking {
    pub(crate) platforms: &'static [&'static str],
    pub(crate) models: &'static [ModelKind],
    pub(crate) programs: (usize, usize),
    pub(crate) epochs: (usize, usize),
    pub(crate) seeds: (&'static [u64], &'static [u64]),
    pub(crate) train_sizes: (&'static [usize], &'static [usize]),
    pub(crate) ks: &'static [(usize, &'static str)],
}

/// A grid of tuning campaigns (Figures 7-10, 13; Tables 3, 5): every
/// method at each of its seeds on every target of every platform, within
/// `budget` — rounds and candidate-space size (the pool is four times the
/// space), where `None` at full scale keeps the `TunerConfig` defaults.
/// One layout per declared file turns the results into rows.
#[derive(Debug)]
pub(crate) struct Grid {
    pub(crate) platforms: (&'static [&'static str], &'static [&'static str]),
    pub(crate) targets: Targets,
    pub(crate) runs: &'static [(&'static [Method], &'static [u64])],
    pub(crate) budget: ((usize, usize), Option<(usize, usize)>),
    pub(crate) layouts: &'static [Layout],
}

/// The targets of a campaign grid.
#[derive(Debug)]
pub(crate) enum Targets {
    /// Networks by short name, cut to their `top` heaviest subgraphs.
    Networks { quick: &'static [&'static str], full: &'static [&'static str], top: usize },
    /// Single operators: (group label, quick list, full list).
    Operators(&'static [(&'static str, Suite, Suite)]),
}

/// The paper's default online budget: 80 rounds over 256 candidates at
/// quick scale, the tuner's defaults at full scale.
const CAMPAIGN: ((usize, usize), Option<(usize, usize)>) = ((80, 256), None);

/// One tuning method of a grid: its label in the results, its cost
/// model, whether PSA drafts the candidate space, and its own
/// candidate-space size or original-space retention ε, if any.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Method {
    pub(crate) label: &'static str,
    pub(crate) model: Model,
    pub(crate) psa: bool,
    pub(crate) space: Option<usize>,
    pub(crate) epsilon: Option<f64>,
}

const fn method(label: &'static str, model: Model, psa: bool) -> Method {
    Method { label, model, psa, space: None, epsilon: None }
}

/// How a campaign's cost model starts.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Model {
    /// Trained online from scratch.
    Fresh(ModelKind),
    /// MTL around the K80-pretrained PaCM, at this momentum.
    Mtl(f32),
    /// Pre-trained on the target platform's offline corpus.
    Offline(ModelKind),
}

/// How a grid's results become one file's rows: one row per target, or
/// per method of each target (of the first target only, if so marked),
/// with named columns in schema order.
#[derive(Debug)]
pub(crate) struct Layout {
    pub(crate) per_method: bool,
    pub(crate) first_target_only: bool,
    pub(crate) cols: &'static [(&'static str, Col)],
}

const fn per_target(cols: &'static [(&'static str, Col)]) -> Layout {
    Layout { per_method: false, first_target_only: false, cols }
}

const fn per_method(cols: &'static [(&'static str, Col)]) -> Layout {
    Layout { per_method: true, first_target_only: false, cols }
}

/// One column of a grid row: a label (platform, target group, target,
/// method, or the method's ε else MTL momentum), a campaign metric, or a
/// property of the target's workload. `Some(i)` names the i-th method and
/// `None` the row's own; metrics read the first seed unless noted.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Col {
    Platform,
    Group,
    Target,
    Method,
    KnobValue,
    /// Final latency in ms, averaged over seeds.
    FinalMs(Option<usize>),
    /// Simulated search time in s, or in minutes.
    TotalS(Option<usize>),
    Minutes(usize),
    /// The curve, sampled to 40 points.
    Curve,
    /// Method `i`'s search time to reach method `vs`'s final latency, as
    /// a speedup over `vs`'s whole search (`null` if never reached).
    Speedup(usize, usize),
    /// Vendor-library and roofline latency in ms, GFLOPs, and the
    /// roofline over the first method's tuned latency.
    VendorMs,
    RooflineMs,
    Gflops,
    RooflineFrac,
}

const NETS_T1: &[&str] = &["R-50", "MB-V2", "R3D-18", "B-base", "B-tiny"];
const NETS_ONLINE: &[&str] = &["ViT", "DL-V3", "B-base"];
const NETS_T3: &[&str] = &["R-50", "I-V3", "ViT", "DL-V3", "B-base"];
const NETS_ALL: &[&str] = &[
    "R-50", "WR-50", "I-V3", "D-121", "MB-V2", "ViT", "DL-V3", "DeTR", "B-base", "B-tiny", "R3D-18",
];
const MODELS: &[ModelKind] = &[ModelKind::TensetMlp, ModelKind::Tlp, ModelKind::Pacm];

const ANSOR: Model = Model::Fresh(ModelKind::Ansor);
const PACM: Model = Model::Fresh(ModelKind::Pacm);
const ONLINE: &[Method] = &[
    method("Ansor", ANSOR, false),
    method("Pruner w/o MTL", PACM, true),
    method("Pruner", Model::Mtl(0.99), true),
];
const OFFLINE: &[Method] = &[
    method("TensetMLP", Model::Offline(ModelKind::TensetMlp), false),
    method("TLP", Model::Offline(ModelKind::Tlp), false),
    method("Pruner", Model::Offline(ModelKind::Pacm), true),
];
const EPSILON: Method = method("epsilon", PACM, true);
const MOMENTUM: Method = method("momentum", Model::Mtl(0.99), true);

/// Curves of fig8 and fig9: one row per (platform, network, method).
#[rustfmt::skip]
const CURVES: Layout = per_method(&[
    ("platform", Col::Platform), ("network", Col::Target), ("method", Col::Method),
    ("final_ms", Col::FinalMs(None)), ("total_search_s", Col::TotalS(None)), ("curve", Col::Curve),
]);

/// A grid on TITAN V at the default online budget; entries override the
/// rest.
const GRID: Grid = Grid {
    platforms: (&["titanv"], &["titanv"]),
    targets: Targets::Networks { quick: &[], full: &[], top: 8 },
    runs: &[],
    budget: CAMPAIGN,
    layouts: &[],
};

/// PSA with the penalties for α, `P_reg`, `P_warp`, `P_kernel` and `P_mem`
/// each on or off.
#[rustfmt::skip]
const fn psa(a: bool, r: bool, w: bool, k: bool, m: bool) -> PsaConfig {
    PsaConfig { enable_alpha: a, enable_reg: r, enable_warp: w, enable_kernel: k, enable_mem: m }
}
const PSA: PsaConfig = psa(true, true, true, true, true);

const MATMUL_SWEEP: Suite = suites::matmul_scalability_sweep;
const CONV_SWEEP: Suite = suites::conv_scalability_sweep;

/// Figure 7's quick-scale operators: BERT GEMMs and a batched attention
/// GEMM; two Winograd-friendly, one strided and one irregular
/// convolution; two depthwise; an element-wise and a reduction.
#[rustfmt::skip]
fn fig7_operators() -> Vec<Workload> {
    use Workload as W;
    vec![
        W::matmul(1, 128, 768, 768), W::matmul(1, 512, 3072, 768), W::matmul(12, 128, 128, 64),
        W::matmul(1, 512, 512, 512),
        W::conv2d(1, 64, 56, 56, 64, 3, 1, 1), W::conv2d(1, 128, 28, 28, 128, 3, 1, 1),
        W::conv2d(1, 256, 56, 56, 128, 1, 2, 0), W::conv2d(1, 17, 31, 31, 51, 3, 1, 1),
        W::dwconv2d(1, 144, 56, 56, 3, 1, 1), W::dwconv2d(1, 576, 14, 14, 3, 1, 1),
        W::elementwise(EwKind::Gelu, 1 << 20), W::reduction(4096, 1024),
    ]
}

/// The fidelity study's operators: one per kind the interpreter runs
/// (GEMM, convolution, depthwise, element-wise, reduction).
fn fidelity_operators() -> Vec<Workload> {
    vec![
        Workload::matmul(1, 192, 192, 192),
        Workload::conv2d(1, 16, 28, 28, 32, 3, 1, 1),
        Workload::dwconv2d(1, 32, 28, 28, 3, 1, 1),
        Workload::elementwise(EwKind::Gelu, 1 << 18),
        Workload::reduction(1024, 256),
    ]
}

/// The size sweep's Spearman floor, asserted on every run.
const SWEEP_FLOOR: f64 = 0.5;

type Only = &'static [(&'static str, &'static str)];

const fn claim(text: &'static str, only: Only, shape: Shape, expect: Verdict) -> Claim {
    Claim { text, only, shape, expect }
}

const fn leads(axis: &'static str, best: &'static str, order: Order) -> Shape {
    Shape::Leads { axis, best, order }
}

const fn dominates(axis: &'static str, a: &'static str, b: &'static str, order: Order) -> Shape {
    Shape::Dominates { axis, a, b, order }
}

const fn band(axis: &'static str, num: &'static str, den: &'static str, lo: f64, hi: f64) -> Shape {
    Shape::Band { axis, num, den, lo, hi }
}

/// At least 1× on average, with every value reached.
const fn speedup(num: &'static str) -> Shape {
    band("field", num, "", 1.0, f64::INFINITY)
}

const TOP1: Only = &[("field", "top1")];
const FINAL: Only = &[("field", "final_ms")];
const TOTAL: Only = &[("field", "total_mb")];
/// The single-penalty rows of Table 4, at size 50.
#[rustfmt::skip]
const SINGLE_PENALTIES: Only = &[("x", "50"), ("method", "w/o alpha"), ("method", "w/o P_reg"),
    ("method", "w/o P_warp"), ("method", "w/o P_kernel"), ("method", "w/o P_mem")];

/// Every entry, in the paper's order.
#[rustfmt::skip]
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        id: "table1", metric: "Best-k of the PSA target space against random samples, T4",
        run: Run::Space(Space {
            groups: &[Group::Networks { platforms: &["t4"], networks: NETS_T1, top: 10,
                tagged: false }],
            pool: (1536, 4000), seed: PoolSeed::KeyLen, min_pool: 0, sizes: &[512, 256],
            psa: &[("PSA", PSA)], random: Some((&[1, 5, 20], (50, 200))),
        }),
        files: &[File { axis: &["B-1", "B-5", "B-20"], ..file("table1", 2) }],
        claims: &[
            claim("The target space beats random sampling on every network, size and k", &[],
                dominates("field", "target", "random", Higher), Holds),
        ],
    },
    Experiment {
        id: "table2", metric: "Top-k of three cost models on held-out subgraphs, T4 and K80",
        run: Run::Ranking(Ranking {
            platforms: &["t4", "k80"], models: MODELS, programs: (64, 128), epochs: (25, 40),
            seeds: (&[5, 6, 7], &[5, 6, 7, 8, 9]), train_sizes: (&[], &[]),
            ks: &[(1, "top1"), (5, "top5")],
        }),
        files: &[file("table2", 2)],
        claims: &[
            claim("PaCM has the best Top-1 on both platforms", TOP1,
                leads("method", "PaCM", Higher), Flipped),
            claim("PaCM has the best Top-5 on both platforms", &[("field", "top5")],
                leads("method", "PaCM", Higher), Flipped),
        ],
    },
    Experiment {
        id: "fig6", metric: "Top-1 against training-set size, T4",
        run: Run::Ranking(Ranking {
            platforms: &["t4"], models: MODELS, programs: (64, 128), epochs: (25, 40),
            seeds: (&[5, 6], &[5, 6, 7]), train_sizes: (&[8, 16, 32, 64], &[8, 16, 32, 64, 128]),
            ks: &[(1, "top1")],
        }),
        files: &[file("fig6", 3)],
        claims: &[
            claim("PaCM converges to the best Top-1 (largest training set)",
                &[("programs_per_subgraph", "64")], leads("method", "PaCM", Higher), Flipped),
        ],
    },
    Experiment {
        id: "fig7", metric: "tuned latency per operator, TITAN V",
        run: Run::Grid(Grid {
            targets: Targets::Operators(&[("", fig7_operators, suites::full_suite)]),
            runs: &[(&[
                Method { space: Some(96), ..method("AutoTVM", ANSOR, false) },
                method("Ansor", ANSOR, false),
                method("Pruner", PACM, true),
            ], &[1])],
            budget: ((50, 256), Some((80, 256))),
            layouts: &[per_target(&[
                ("operator", Col::Target), ("autotvm_ms", Col::FinalMs(Some(0))),
                ("ansor_ms", Col::FinalMs(Some(1))), ("pruner_ms", Col::FinalMs(Some(2))),
                ("vendor_ms", Col::VendorMs),
            ])],
            ..GRID
        }),
        files: &[file("fig7", 1)],
        claims: &[
            claim("Pruner is at least as fast as AutoTVM on every operator", &[],
                dominates("field", "pruner_ms", "autotvm_ms", Lower), Flipped),
            claim("Pruner is at least as fast as Ansor on every operator", &[],
                dominates("field", "pruner_ms", "ansor_ms", Lower), Flipped),
        ],
    },
    Experiment {
        id: "fig8", metric: "online tuning curves and time to Ansor's final latency, A100",
        run: Run::Grid(Grid {
            platforms: (&["a100"], &["a100", "orin", "titanv"]),
            targets: Targets::Networks { quick: NETS_ONLINE, full: NETS_ONLINE, top: 8 },
            runs: &[(ONLINE, &[21])], layouts: &[CURVES], ..GRID
        }),
        files: &[File { parity: Some("Ansor"), ..file("fig8_fig16", 3) }],
        claims: &[
            claim("Both Pruner variants end at or below Ansor on every network (w/o MTL)", FINAL,
                dominates("method", "Pruner w/o MTL", "Ansor", Lower), Holds),
            claim("Both Pruner variants end at or below Ansor on every network (MTL)", FINAL,
                dominates("method", "Pruner", "Ansor", Lower), Holds),
            claim("MTL reaches Ansor's final latency first on every network",
                &[("field", "parity_s")], leads("method", "Pruner", Lower), Flipped),
        ],
    },
    Experiment {
        id: "fig9", metric: "offline tuning curves, A100",
        run: Run::Grid(Grid {
            platforms: (&["a100"], &["a100", "orin", "titanv"]),
            targets: Targets::Networks { quick: NETS_ONLINE, full: NETS_ONLINE, top: 8 },
            runs: &[(OFFLINE, &[23])], layouts: &[CURVES], ..GRID
        }),
        files: &[file("fig9_fig17", 3)],
        claims: &[
            claim("Pruner ends lowest on every network", FINAL, leads("method", "Pruner", Lower),
                Flipped),
        ],
    },
    Experiment {
        id: "fig10", metric: "time-to-parity speedups, A100",
        run: Run::Grid(Grid {
            platforms: (&["a100"], &["a100"]),
            targets: Targets::Networks { quick: &["R-50", "MB-V2", "ViT", "DL-V3", "B-base"],
                full: NETS_ALL, top: 8 },
            runs: &[(ONLINE, &[29]), (OFFLINE, &[37])],
            layouts: &[per_target(&[
                ("network", Col::Target), ("ansor_s", Col::TotalS(Some(0))),
                ("no_mtl_speedup", Col::Speedup(1, 0)), ("mtl_speedup", Col::Speedup(2, 0)),
                ("tensetmlp_speedup", Col::Speedup(5, 3)), ("tlp_speedup", Col::Speedup(5, 4)),
            ])],
            ..GRID
        }),
        files: &[file("fig10_fig14_fig15", 1)],
        claims: &[
            claim("w/o MTL reaches Ansor's final latency everywhere, ≥ 1× on average", &[],
                speedup("no_mtl_speedup"), Holds),
            claim("MTL reaches Ansor's final latency everywhere, ≥ 1× on average", &[],
                speedup("mtl_speedup"), Holds),
            claim("MTL's average speedup over Ansor exceeds w/o MTL's", &[],
                band("field", "mtl_speedup", "no_mtl_speedup", 1.0, f64::INFINITY), Flipped),
            claim("Offline Pruner reaches TensetMLP's final latency everywhere, ≥ 1× on average",
                &[], speedup("tensetmlp_speedup"), Flipped),
            claim("Offline Pruner reaches TLP's final latency everywhere, ≥ 1× on average", &[],
                speedup("tlp_speedup"), Flipped),
        ],
    },
    Experiment {
        id: "table3", metric: "compile time at a fixed trial budget, TITAN V",
        run: Run::Grid(Grid {
            targets: Targets::Networks { quick: NETS_T3, full: NETS_T3, top: 8 },
            runs: &[(ONLINE, &[41])],
            layouts: &[per_target(&[
                ("network", Col::Target), ("ansor_min", Col::Minutes(0)),
                ("no_mtl_min", Col::Minutes(1)), ("pruner_min", Col::Minutes(2)),
            ])],
            ..GRID
        }),
        files: &[file("table3", 1)],
        claims: &[
            claim("Pruner w/o MTL compiles in less time than Ansor (paper 84.1%)", &[],
                band("field", "no_mtl_min", "ansor_min", 0.0, 1.0), Holds),
            claim("Pruner compiles in less time than Ansor (paper 75.3%)", &[],
                band("field", "pruner_min", "ansor_min", 0.0, 1.0), Holds),
            claim("MTL saves compile time over w/o MTL", &[],
                band("field", "pruner_min", "no_mtl_min", 0.0, 1.0), Holds),
        ],
    },
    Experiment {
        id: "table4", metric: "Best-1 of the target space under PSA penalty ablations, T4",
        run: Run::Space(Space {
            groups: &[Group::Pooled { platform: "t4", networks: NETS_T1, top: 8 }],
            pool: (4000, 8000), seed: PoolSeed::KeyBytes(0), min_pool: 512,
            sizes: &[50, 128, 256, 512],
            psa: &[
                ("w/o com", psa(false, false, false, false, true)),
                ("w/o alpha", psa(false, true, true, true, true)),
                ("w/o P_reg", psa(true, false, true, true, true)),
                ("w/o P_warp", psa(true, true, false, true, true)),
                ("w/o P_kernel", psa(true, true, true, false, true)),
                ("w/o P_mem", psa(true, true, true, true, false)),
                ("PSA", PSA),
            ],
            random: None,
        }),
        files: &[file("table4", 1)],
        claims: &[
            claim("Removing P_kernel costs the most of any single penalty (size 50)",
                SINGLE_PENALTIES, leads("method", "w/o P_kernel", Lower), Holds),
            claim("Removing α costs the least of any single penalty (size 50)", SINGLE_PENALTIES,
                leads("method", "w/o alpha", Higher), Holds),
            claim("Full PSA beats every ablation at size 50", &[("x", "50")],
                leads("method", "PSA", Higher), Flipped),
        ],
    },
    Experiment {
        id: "table5", metric: "final latency under module ablations, TITAN V",
        run: Run::Grid(Grid {
            targets: Targets::Networks { quick: &["R-50", "ViT", "B-tiny"],
                full: &["R-50", "I-V3", "ViT", "DL-V3", "B-tiny", "B-base"], top: 8 },
            runs: &[(&[
                method("w/o S.F.", Model::Fresh(ModelKind::PacmNoStmt), true),
                method("w/o D.F.", Model::Fresh(ModelKind::PacmNoFlow), true),
                method("w/o MTL", PACM, true),
                method("w/o PSA", Model::Mtl(0.99), false),
                method("Pruner", Model::Mtl(0.99), true),
            ], &[47, 48, 49])],
            layouts: &[
                per_method(&[("config", Col::Method), ("network", Col::Target),
                    ("latency_ms", Col::FinalMs(None))]),
                Layout { first_target_only: true,
                    ..per_method(&[("config", Col::Method), ("curve", Col::Curve)]) },
            ],
            ..GRID
        }),
        files: &[file("table5", 2), file("fig11", 1)],
        claims: &[
            claim("Full Pruner has the lowest latency on every network", &[],
                leads("config", "Pruner", Lower), Flipped),
            claim("Removing PSA hurts most on every network", &[],
                leads("config", "w/o PSA", Higher), Flipped),
            claim("Removing data-flow features hurts more than removing statement features", &[],
                dominates("config", "w/o D.F.", "w/o S.F.", Higher), Flipped),
        ],
    },
    Experiment {
        id: "table6", metric: "Best-1 of the target space against its size, TITAN V, K80 and T4",
        run: Run::Space(Space {
            groups: &[
                Group::Operators { platform: "titanv", take: 10, suites: &[
                    ("matmul", suites::matmul_suite), ("conv", suites::conv_suite),
                    ("dwconv", suites::dwconv_suite), ("ew&red", suites::ewred_suite),
                ] },
                Group::Networks { platforms: &["k80", "t4"], networks: NETS_T1, top: 6,
                    tagged: true },
            ],
            pool: (4000, 8000), seed: PoolSeed::KeyBytes(0x7A61), min_pool: 64,
            sizes: &[50, 128, 256, 512], psa: &[("PSA", PSA)], random: None,
        }),
        files: &[file("table6_fig12", 1)],
        claims: &[
            claim("Best-1 never falls as the target space grows", &[],
                Shape::Monotone { axis: "x", order: Higher }, Holds),
            claim("Size 512 keeps a mean Best-1 of at least 0.96", &[],
                band("x", "512", "", 0.96, 1.0), Holds),
        ],
    },
    Experiment {
        id: "fig13", metric: "tuned latency against the roofline as shapes grow, TITAN V",
        run: Run::Grid(Grid {
            targets: Targets::Operators(&[
                ("matmul (BERT-large FFN)", MATMUL_SWEEP, MATMUL_SWEEP),
                ("conv2d (ResNet-50 3x3)", CONV_SWEEP, CONV_SWEEP),
            ]),
            runs: &[(&[method("Pruner", PACM, true)], &[13])],
            budget: ((30, 192), None),
            layouts: &[per_target(&[
                ("sweep", Col::Group), ("workload", Col::Target), ("gflops", Col::Gflops),
                ("tuned_ms", Col::FinalMs(Some(0))), ("roofline_ms", Col::RooflineMs),
                ("roofline_frac", Col::RooflineFrac),
            ])],
            ..GRID
        }),
        files: &[file("fig13", 2)],
        claims: &[
            claim("The roofline fraction never falls as the shape grows",
                &[("field", "roofline_frac")], Shape::Monotone { axis: "workload", order: Higher },
                Flipped),
        ],
    },
    Experiment {
        id: "memory", metric: "cost-model memory at inference batch 4096",
        run: Run::Memory,
        files: &[file("memory", 1)],
        claims: &[
            claim("TLP needs the most memory", TOTAL, leads("method", "TLP", Higher), Holds),
            claim("PaCM needs more memory than TensetMLP", TOTAL,
                dominates("method", "PaCM", "TensetMLP", Higher), Holds),
        ],
    },
    Experiment {
        id: "ablation_extra", metric: "final latency across MTL momentum and ε, TITAN V",
        run: Run::Grid(Grid {
            targets: Targets::Networks { quick: &["R-50"], full: &["R-50"], top: 8 },
            runs: &[(&[
                Method { model: Model::Mtl(0.0), ..MOMENTUM },
                Method { model: Model::Mtl(0.9), ..MOMENTUM },
                MOMENTUM,
                Method { model: Model::Mtl(1.0), ..MOMENTUM },
                Method { epsilon: Some(0.0), ..EPSILON },
                Method { epsilon: Some(0.2), ..EPSILON },
                Method { epsilon: Some(0.5), ..EPSILON },
            ], &[53])],
            layouts: &[per_method(&[("knob", Col::Method), ("value", Col::KnobValue),
                ("final_ms", Col::FinalMs(None))])],
            ..GRID
        }),
        files: &[file("ablation_extra", 2)],
        claims: &[
            claim("Momentum 0.99 gives the lowest final latency", &[("knob", "momentum")],
                leads("value", "0.99", Lower), Flipped),
            claim("Some retention (ε = 0.2) beats none",
                &[("knob", "epsilon"), ("value", "0"), ("value", "0.2")],
                leads("value", "0.2", Lower), Flipped),
        ],
    },
    Experiment {
        id: "fidelity", metric: "rank agreement of simulated T4 latency with measured CPU time",
        run: Run::Fidelity(Fidelity {
            platform: "t4", sizes: &[32, 48, 64, 96, 128, 160, 192], floor: SWEEP_FLOOR,
            operators: fidelity_operators, candidates: (24, 64),
        }),
        files: &[file("fidelity", 1)],
        claims: &[
            claim("The simulator orders GEMM sizes like real execution (ρ ≥ 0.5)",
                &[("workload", "size sweep")], band("field", "spearman", "", SWEEP_FLOOR, 1.0),
                Holds),
            claim("The simulator ranks GEMM schedules like real execution (ρ ≥ 0.3)",
                &[("workload", "matmul_b1m192n192k192")], band("field", "spearman", "", 0.3, 1.0),
                Holds),
        ],
    },
    Experiment {
        id: "fleet", metric: "probe-rank transfer and forgetting across a cross-hardware fleet",
        run: Run::Fleet { roster: (&["k80", "t4", "a100"],
            &["k80", "t4", "titanv", "a100", "orin"]) },
        files: &[file("fleet", 1), file("fleet_transfer", 3)],
        claims: &[
            claim("The pre-trained model ranks the probes before any transfer (mean ρ ≥ 0.5)",
                &[], band("field", "baseline", "", 0.5, 1.0), Holds),
            claim("No device forgets: its final probe ρ is at least its ρ after its own stage",
                &[], dominates("field", "final_score", "score_after_training", Higher), Holds),
        ],
    },
];
