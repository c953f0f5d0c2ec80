//! Bit-for-bit reference for the schedule model.
//!
//! Sampling, mutation, crossover, validity, fingerprints and the derived
//! statistics of a schedule feed everything downstream: the simulator,
//! PSA's draft and the verifier's features. This test folds, per workload
//! of the zoo, every observable output of those routines into one
//! FNV-1a-64 digest:
//!
//! - the schedules of 40 seeded [`Program::sample`] draws, each followed by
//!   the RNG's next `u64` (which pins how many draws a sample consumed);
//! - 30 [`evolve::mutate`] children of one sampled parent, each followed by
//!   the RNG's next `u64`;
//! - 64 children of [`evolve::reference::next_generation`] (mutations,
//!   crossovers and fresh samples) over an eight-program
//!   [`evolve::reference::init_population`];
//! - a 48-program [`evolve::init_population`] and the RNG's next `u64`;
//! - 120 explicit raw schedules of every sketch kind (drawn by a generator
//!   local to this test, with factors and annotations beyond what the
//!   sampler picks, so many are rejected) with their `is_valid` verdicts;
//! - for every program above: its [`Program::fingerprint`] and the bits of
//!   every [`ProgramStats`] field, every statement's kind, destination,
//!   `n_ops`, global, shared, innermost and `tensor_bytes`, and every
//!   data-flow step.
//!
//! `REFERENCE` was captured at commit `7aaf230`, where the per-program
//! routines (`ProgramStats::compute`, the program samplers and the
//! program-level mutate/crossover bodies) were still a second
//! implementation beside the gene routines of the candidate arena. The
//! digests are fixed constants with no regenerate path; never re-derive
//! them from a later build. A change that moves one changed what a
//! schedule is, samples to, or costs.

use pruner_ir::{EwKind, Workload};
use pruner_sketch::{
    evolve, HardwareLimits, MemLevel, Program, ProgramStats, ReduceConfig, Schedule, SimpleConfig,
    StmtKind, TileConfig,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// `(workload key, fnv1a64)` per zoo workload, as computed at `7aaf230`.
const REFERENCE: [(&str, &str); 7] = [
    ("matmul_b1m512n512k512", "6df92737c82fbea9"),
    ("matmul_b12m128n128k64", "07635df23fe3f97a"),
    ("conv2d_n1c64h56w56co64k3x3s1p1d1", "cb591898a03b1898"),
    ("dwconv2d_n1c96h112w112k3x3s2p1", "a98f6425a4e1407c"),
    ("conv3d_n1c16d8h28w28co32k3s1p1", "b8737ab7392805c9"),
    ("ew_gelu_262144", "b15e4f630bef9c89"),
    ("reduce_o2048r768", "0125f998357571e3"),
];

/// Every sketch kind and operator class, batched and unbatched.
fn zoo() -> [Workload; 7] {
    [
        Workload::matmul(1, 512, 512, 512),
        Workload::matmul(12, 128, 128, 64),
        Workload::conv2d(1, 64, 56, 56, 64, 3, 1, 1),
        Workload::dwconv2d(1, 96, 112, 112, 3, 2, 1),
        Workload::conv3d(1, 16, 8, 28, 28, 32, 3, 1, 1),
        Workload::elementwise(EwKind::Gelu, 1 << 18),
        Workload::reduction(2048, 768),
    ]
}

struct Fnv(u64);

impl Fnv {
    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    fn level(&mut self, l: MemLevel) {
        self.word(l as u64);
    }

    fn schedule(&mut self, s: &Schedule) {
        match s {
            Schedule::MultiTile(t) => {
                self.word(1);
                self.word(t.spatial.len() as u64);
                t.spatial.iter().flatten().for_each(|&v| self.word(v));
                self.word(t.reduce.len() as u64);
                t.reduce.iter().flatten().for_each(|&v| self.word(v));
                self.word(t.unroll);
                self.word(t.vectorize);
            }
            Schedule::Simple(c) => {
                self.word(2);
                [c.threads, c.serial, c.vectorize]
                    .into_iter()
                    .for_each(|v| self.word(v));
            }
            Schedule::RowReduce(c) => {
                self.word(3);
                [c.rows_per_block, c.reduce_threads, c.serial]
                    .into_iter()
                    .for_each(|v| self.word(v));
            }
        }
    }

    fn stats(&mut self, s: &ProgramStats) {
        for v in [
            s.threads_per_block,
            s.num_blocks,
            s.vthreads,
            s.regs_per_thread,
            s.shared_bytes_per_block,
            s.unroll,
            s.vectorize,
        ] {
            self.word(v);
        }
        for v in [
            s.flops_total,
            s.global_bytes,
            s.shared_traffic_bytes,
            s.padding_waste,
            s.per_thread_flops,
            s.per_thread_reg_accesses,
        ] {
            self.f(v);
        }
        self.word(s.stmts.len() as u64);
        for st in &s.stmts {
            self.word(stmt_kind(st.kind));
            self.level(st.dst_level);
            self.f(st.n_ops);
            self.f(st.global_bytes);
            self.f(st.shared_bytes);
            self.word(st.innermost_len);
            self.f(st.tensor_bytes);
        }
        self.word(s.dataflow.len() as u64);
        for d in &s.dataflow {
            self.level(d.src);
            self.level(d.dst);
            for v in [d.bytes, d.alloc_bytes, d.steps, d.reuse, d.ops] {
                self.f(v);
            }
            for v in [d.contig, d.threads, d.vec] {
                self.word(v);
            }
        }
    }

    /// A program: its schedule, fingerprint and statistics.
    fn program(&mut self, p: &Program) {
        self.schedule(&p.schedule);
        self.word(p.fingerprint());
        self.stats(&p.stats());
    }
}

fn stmt_kind(k: StmtKind) -> u64 {
    match k {
        StmtKind::GlobalToShared => 0,
        StmtKind::SharedToRegister => 1,
        StmtKind::Compute => 2,
        StmtKind::WriteBack => 3,
        StmtKind::GlobalLoad => 4,
    }
}

/// A test-local factor chain: `parts` factors multiplying to `extent`.
fn split<const N: usize>(extent: u64, rng: &mut ChaCha8Rng) -> [u64; N] {
    let mut out = [1; N];
    let mut rest = extent;
    for slot in out.iter_mut().take(N - 1) {
        let small = (1..)
            .take_while(|d| d * d <= rest)
            .filter(|d| rest.is_multiple_of(*d));
        let mut divs: Vec<u64> = small.flat_map(|d| [d, rest / d]).collect();
        divs.sort_unstable();
        divs.dedup();
        *slot = divs[rng.gen_range(0..divs.len())];
        rest /= *slot;
    }
    out[N - 1] = rest;
    out
}

/// A raw schedule of each kind for `wl` — rank-correct and padded to at
/// least the true extents, but otherwise unconstrained, so the hardware
/// limits reject many of them. `Simple` and `RowReduce` schedules are drawn
/// for every workload, so the statistics of a sketch kind the sampler
/// would not pick are pinned too.
fn raw_schedules(wl: &Workload, rng: &mut ChaCha8Rng) -> Vec<Schedule> {
    let pad = |e: u64, rng: &mut ChaCha8Rng| {
        let q = [1u64, 2, 4, 8][rng.gen_range(0..4)];
        e.div_ceil(q) * q
    };
    let mut out = Vec::new();
    for _ in 0..40 {
        let spatial = wl
            .spatial_extents()
            .iter()
            .map(|&e| split::<5>(pad(e, rng), rng))
            .collect();
        let reduce = wl
            .reduce_extents()
            .iter()
            .map(|&e| split::<3>(pad(e, rng), rng))
            .collect();
        out.push(Schedule::MultiTile(TileConfig {
            spatial,
            reduce,
            unroll: [0, 16, 64, 512][rng.gen_range(0..4)],
            vectorize: [1, 2, 4][rng.gen_range(0..3)],
        }));
        out.push(Schedule::Simple(SimpleConfig {
            threads: 1 << rng.gen_range(4..12),
            serial: 1 << rng.gen_range(0..6),
            vectorize: [1, 2, 4, 8][rng.gen_range(0..4)],
        }));
        out.push(Schedule::RowReduce(ReduceConfig {
            rows_per_block: 1 << rng.gen_range(0..5),
            reduce_threads: 1 << rng.gen_range(4..12),
            serial: 1 << rng.gen_range(0..5),
        }));
    }
    out
}

fn digest(wl: &Workload, seed: u64) -> (String, usize) {
    let limits = HardwareLimits::default();
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut rejected = 0;

    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for _ in 0..40 {
        let p = Program::sample(wl, &limits, &mut rng);
        h.program(&p);
        h.word(rng.gen());
    }

    let parent = Program::sample(wl, &limits, &mut rng);
    for _ in 0..30 {
        let child = evolve::mutate(&parent, &limits, &mut rng);
        h.program(&child);
        h.word(rng.gen());
    }

    let elites = evolve::reference::init_population(wl, 8, &limits, seed, 0);
    elites.iter().for_each(|p| h.program(p));
    for p in evolve::reference::next_generation(&elites, 64, &limits, seed, 1) {
        h.program(&p);
    }

    let pop = evolve::init_population(wl, 48, &limits, &mut rng);
    h.word(pop.len() as u64);
    pop.iter().for_each(|p| h.program(p));
    h.word(rng.gen());

    for schedule in raw_schedules(wl, &mut rng) {
        let p = Program::new(wl.clone(), schedule);
        let valid = p.is_valid(&limits);
        rejected += usize::from(!valid);
        h.word(u64::from(valid));
        h.program(&p);
    }
    (format!("{:016x}", h.0), rejected)
}

#[test]
fn schedules_match_the_reference_digest() {
    let got: Vec<(String, String)> = zoo()
        .iter()
        .enumerate()
        .map(|(i, wl)| {
            let (digest, rejected) = digest(wl, 0x005C_4ED0 + i as u64);
            assert!(
                rejected > 0,
                "no raw schedule of {wl} was rejected; the check is too weak"
            );
            (wl.key(), digest)
        })
        .collect();
    let want: Vec<(String, String)> = REFERENCE
        .iter()
        .map(|&(k, d)| (k.to_string(), d.to_string()))
        .collect();
    assert_eq!(
        got, want,
        "schedule digests differ from the ones captured at 7aaf230"
    );
}
