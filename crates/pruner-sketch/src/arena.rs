//! The schedule model on genes, and the struct-of-arrays candidate arena.
//!
//! A schedule is a fixed-size [`GeneBuf`], read through the
//! [`WorkloadCtx`] of its workload. The routines here are the only
//! definition of what a schedule samples to, mutates and crosses over to,
//! whether it is launchable, how it is fingerprinted, and what statistics
//! and data flow it derives. [`Program`]'s methods and
//! [`crate::evolve`]'s operators pack a program's schedule into genes and
//! call them.
//!
//! A pool that materializes every candidate as a [`Program`] (two
//! heap-backed `Vec`s per schedule) and a [`crate::stats::ProgramStats`]
//! (two more `Vec`s), then dedups by a formatted `String` key, costs
//! hundreds of MB of short-lived allocation per second at pool sizes of
//! 10⁶ candidates per round. The [`CandidateArena`] instead keeps the pool
//! as one flat buffer per axis family — tile splits, annotations, derived
//! statistics — with *program identity = index*. Candidates are
//! materialized back into [`Program`]s only at the measure boundary (a few
//! hundred per round).

use crate::config::{
    reduce_thread_options, ReduceConfig, Schedule, SimpleConfig, TileConfig, REDUCE_THREADS,
    ROW_CANDIDATES, SIMPLE_SERIAL, SIMPLE_THREADS, UNROLL_CANDIDATES, VECTORIZE_CANDIDATES,
};
use crate::limits::HardwareLimits;
use crate::program::{fnv1a_u64, workload_fnv, Program};
use crate::split::{divisors, draw_split, pad_to_quantum};
use crate::stats::{MemLevel, StmtKind, ELEM_BYTES};
use pruner_ir::{EwKind, Workload};
use pruner_par::fan_out;
use rand::Rng;
use std::borrow::Cow;
use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, OnceLock};

/// Maximum spatial axes of any supported workload (conv3d has 5).
pub(crate) const MAX_SPATIAL_AXES: usize = 5;
/// Maximum reduction axes of any supported workload (conv3d has 4).
pub(crate) const MAX_REDUCE_AXES: usize = 4;
/// Maximum buffer statements per candidate (2 operands: 2×G2S + 2×S2R +
/// compute + writeback).
pub(crate) const MAX_ARENA_STMTS: usize = 6;

/// Which schedule sketch a workload instantiates. Fixed per workload, so
/// one arena never mixes sketch kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SketchKind {
    /// Multi-level tiling (matmul / conv family).
    MultiTile,
    /// Flat element-wise schedule.
    Simple,
    /// Cross-thread row reduction.
    RowReduce,
}

impl SketchKind {
    /// The sketch kind [`Program::sample`] draws for `workload`.
    pub fn of(workload: &Workload) -> SketchKind {
        match workload {
            Workload::Elementwise { .. } => SketchKind::Simple,
            Workload::Reduction { .. } => SketchKind::RowReduce,
            _ => SketchKind::MultiTile,
        }
    }

    /// The sketch kind `schedule` instantiates.
    pub(crate) fn of_schedule(schedule: &Schedule) -> SketchKind {
        match schedule {
            Schedule::MultiTile(_) => SketchKind::MultiTile,
            Schedule::Simple(_) => SketchKind::Simple,
            Schedule::RowReduce(_) => SketchKind::RowReduce,
        }
    }
}

/// One candidate's genes in fixed-size form — the arena's row type.
///
/// Interpretation depends on the context's [`SketchKind`]:
/// - `MultiTile`: `spatial[..n_s]`, `reduce[..n_r]`, `a0` = unroll,
///   `a1` = vectorize, `a2` unused (0).
/// - `Simple`: `a0` = threads, `a1` = serial, `a2` = vectorize.
/// - `RowReduce`: `a0` = rows_per_block, `a1` = reduce_threads,
///   `a2` = serial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GeneBuf {
    /// Per spatial axis `[block, vthread, thread, serial0, serial1]`.
    pub spatial: [[u64; 5]; MAX_SPATIAL_AXES],
    /// Per reduction axis `[outer, mid, inner]`.
    pub reduce: [[u64; 3]; MAX_REDUCE_AXES],
    /// First annotation slot (see type docs).
    pub a0: u64,
    /// Second annotation slot.
    pub a1: u64,
    /// Third annotation slot.
    pub a2: u64,
}

impl Default for GeneBuf {
    fn default() -> Self {
        GeneBuf {
            spatial: [[1; 5]; MAX_SPATIAL_AXES],
            reduce: [[1; 3]; MAX_REDUCE_AXES],
            a0: 0,
            a1: 0,
            a2: 0,
        }
    }
}

impl GeneBuf {
    /// Packs `schedule` into genes; axes beyond its rank stay 1.
    ///
    /// # Panics
    /// Panics if the schedule has more axes than any supported workload.
    pub(crate) fn from_schedule(schedule: &Schedule) -> GeneBuf {
        let mut g = GeneBuf::default();
        match schedule {
            Schedule::MultiTile(t) => {
                g.spatial[..t.spatial.len()].copy_from_slice(&t.spatial);
                g.reduce[..t.reduce.len()].copy_from_slice(&t.reduce);
                g.a0 = t.unroll;
                g.a1 = t.vectorize;
            }
            Schedule::Simple(c) => {
                g.a0 = c.threads;
                g.a1 = c.serial;
                g.a2 = c.vectorize;
            }
            Schedule::RowReduce(c) => {
                g.a0 = c.rows_per_block;
                g.a1 = c.reduce_threads;
                g.a2 = c.serial;
            }
        }
        g
    }

    /// Continues the FNV-1a state `h` (a workload key's hash) over every
    /// gene of a `kind` schedule with `n_s`/`n_r` axes, behind a per-sketch
    /// tag so different sketch kinds can never alias.
    pub(crate) fn fingerprint(&self, mut h: u64, kind: SketchKind, n_s: usize, n_r: usize) -> u64 {
        match kind {
            SketchKind::MultiTile => {
                h = fnv1a_u64(h, 1);
                h = fnv1a_u64(h, n_s as u64);
                for s in &self.spatial[..n_s] {
                    for &v in s {
                        h = fnv1a_u64(h, v);
                    }
                }
                h = fnv1a_u64(h, n_r as u64);
                for r in &self.reduce[..n_r] {
                    for &v in r {
                        h = fnv1a_u64(h, v);
                    }
                }
                h = fnv1a_u64(h, self.a0);
                fnv1a_u64(h, self.a1)
            }
            SketchKind::Simple | SketchKind::RowReduce => {
                h = fnv1a_u64(h, if kind == SketchKind::Simple { 2 } else { 3 });
                h = fnv1a_u64(h, self.a0);
                h = fnv1a_u64(h, self.a1);
                fnv1a_u64(h, self.a2)
            }
        }
    }
}

/// Cached divisor lists for every padded-extent value sampling can reach.
///
/// A split draw takes one divisor of the remaining quotient per tile
/// level; the quotient is always a divisor of the (possibly padded) axis
/// extent, so the closure of reachable values is exactly the divisor sets
/// of the padding bases. Dense-indexed by value for O(1) lookup.
#[derive(Debug, Default)]
struct DivisorTable {
    /// `(offset, len)` into `flat`, indexed by value; `len == 0` = absent.
    index: Vec<(u32, u32)>,
    flat: Vec<u64>,
}

/// Largest padded extent the dense divisor table will index; beyond this
/// the sampler falls back to computing divisors on the fly.
const DIVTAB_MAX_VALUE: u64 = 1 << 22;

impl DivisorTable {
    fn build(bases: impl Iterator<Item = u64>) -> DivisorTable {
        let mut values: Vec<u64> = Vec::new();
        for base in bases {
            if base == 0 || base > DIVTAB_MAX_VALUE {
                continue;
            }
            // Every quotient reachable from `base` is one of its divisors.
            values.extend(divisors(base));
        }
        values.sort_unstable();
        values.dedup();
        let max = values.last().copied().unwrap_or(0);
        let mut index = vec![(0u32, 0u32); max as usize + 1];
        let mut flat = Vec::new();
        for v in values {
            let divs = divisors(v);
            index[v as usize] = (flat.len() as u32, divs.len() as u32);
            flat.extend(divs);
        }
        DivisorTable { index, flat }
    }

    #[inline]
    fn entry(&self, n: u64) -> Option<&[u64]> {
        let (off, len) = *self.index.get(n as usize)?;
        if len == 0 {
            return None;
        }
        Some(&self.flat[off as usize..off as usize + len as usize])
    }

    /// The divisors of `n`: cached, or computed for a padded extent outside
    /// the table (gigantic axes only).
    #[inline]
    fn divisors(&self, n: u64) -> Cow<'_, [u64]> {
        self.entry(n).map_or_else(|| Cow::Owned(divisors(n)), Cow::Borrowed)
    }
}

/// Derived per-candidate statistics in fixed-size row form — exactly the
/// fields PSA and the feature extractors read from
/// [`crate::stats::ProgramStats`], minus the per-stmt `Vec`s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatsRow {
    /// Threads per block.
    pub threads_per_block: u64,
    /// Number of thread blocks.
    pub num_blocks: u64,
    /// Virtual threads per block.
    pub vthreads: u64,
    /// Estimated registers per thread, uncapped.
    pub regs_per_thread: u64,
    /// Shared memory per block, bytes.
    pub shared_bytes_per_block: u64,
    /// Total floating-point work including padding waste.
    pub flops_total: f64,
    /// Total global-memory traffic, bytes.
    pub global_bytes: f64,
    /// Total shared-memory traffic, bytes.
    pub shared_traffic_bytes: f64,
    /// Padding waste multiplier ≥ 1.
    pub padding_waste: f64,
    /// Per-thread arithmetic workload.
    pub per_thread_flops: f64,
    /// Per-thread register accesses.
    pub per_thread_reg_accesses: f64,
    /// Unroll annotation.
    pub unroll: u64,
    /// Vectorize annotation.
    pub vectorize: u64,
    /// Number of valid statement slots.
    pub n_stmts: usize,
    /// Per-stmt total operations.
    pub stmt_n_ops: [f64; MAX_ARENA_STMTS],
    /// Per-stmt global-memory bytes.
    pub stmt_global: [f64; MAX_ARENA_STMTS],
    /// Per-stmt shared-memory bytes.
    pub stmt_shared: [f64; MAX_ARENA_STMTS],
    /// Per-stmt innermost contiguous run length.
    pub stmt_innermost: [u64; MAX_ARENA_STMTS],
}

impl Default for StatsRow {
    fn default() -> Self {
        StatsRow {
            threads_per_block: 0,
            num_blocks: 0,
            vthreads: 0,
            regs_per_thread: 0,
            shared_bytes_per_block: 0,
            flops_total: 0.0,
            global_bytes: 0.0,
            shared_traffic_bytes: 0.0,
            padding_waste: 0.0,
            per_thread_flops: 0.0,
            per_thread_reg_accesses: 0.0,
            unroll: 0,
            vectorize: 0,
            n_stmts: 0,
            stmt_n_ops: [0.0; MAX_ARENA_STMTS],
            stmt_global: [0.0; MAX_ARENA_STMTS],
            stmt_shared: [0.0; MAX_ARENA_STMTS],
            stmt_innermost: [0; MAX_ARENA_STMTS],
        }
    }
}

/// One candidate's data-flow pattern in fixed-size row form — the steps
/// `ProgramStats::dataflow` lists, filled on demand for the shortlist only
/// (empty for non-multi-tile sketches, per the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowRow {
    /// Number of valid steps.
    pub n: usize,
    /// Source memory level per step.
    pub src: [MemLevel; MAX_ARENA_STMTS],
    /// Destination memory level per step.
    pub dst: [MemLevel; MAX_ARENA_STMTS],
    /// Total bytes moved per step.
    pub bytes: [f64; MAX_ARENA_STMTS],
    /// Bytes allocated at the destination per step.
    pub alloc_bytes: [f64; MAX_ARENA_STMTS],
    /// Staging iterations per step.
    pub steps: [f64; MAX_ARENA_STMTS],
    /// Contiguous elements per access run.
    pub contig: [u64; MAX_ARENA_STMTS],
    /// Cooperating threads per step.
    pub threads: [u64; MAX_ARENA_STMTS],
    /// Data reuse factor per step.
    pub reuse: [f64; MAX_ARENA_STMTS],
    /// Vector width per step.
    pub vec: [u64; MAX_ARENA_STMTS],
    /// Arithmetic ops attributed to the step.
    pub ops: [f64; MAX_ARENA_STMTS],
}

impl Default for FlowRow {
    fn default() -> Self {
        FlowRow {
            n: 0,
            src: [MemLevel::Global; MAX_ARENA_STMTS],
            dst: [MemLevel::Global; MAX_ARENA_STMTS],
            bytes: [0.0; MAX_ARENA_STMTS],
            alloc_bytes: [0.0; MAX_ARENA_STMTS],
            steps: [0.0; MAX_ARENA_STMTS],
            contig: [0; MAX_ARENA_STMTS],
            threads: [0; MAX_ARENA_STMTS],
            reuse: [0.0; MAX_ARENA_STMTS],
            vec: [0; MAX_ARENA_STMTS],
            ops: [0.0; MAX_ARENA_STMTS],
        }
    }
}

/// Everything about one workload that candidate generation, validity
/// checking, statistics and fingerprinting need — shared (via `Arc`) by
/// every arena of that workload.
///
/// What statistics, data flow and validity read — the sketch kind, the
/// extents, flop and operand sizes, and the statement slots — is built
/// up front and is cheap, so [`Program::stats`] builds a context per call.
/// What only generation and dedup read (the divisor table, the rich-extent
/// flags, the fallback genes and the workload key's hash) is built on
/// first use.
#[derive(Debug)]
pub struct WorkloadCtx {
    workload: Workload,
    kind: SketchKind,
    spatial_extents: Vec<u64>,
    reduce_extents: Vec<u64>,
    n_s: usize,
    n_r: usize,
    flops: f64,
    output_elems: u64,
    operand_elems: Vec<u64>,
    num_operands: usize,
    /// `Π` true iteration extents as f64 (MultiTile padding denominator).
    true_iters: f64,
    /// Rows and row length a row-reduce schedule reduces: a reduction's
    /// own, else the flattened output as rows of the full reduction extent.
    rr_rows: u64,
    rr_reduce: u64,
    n_stmts: usize,
    stmt_kinds: [StmtKind; MAX_ARENA_STMTS],
    stmt_dsts: [MemLevel; MAX_ARENA_STMTS],
    gen: OnceLock<GenTables>,
}

/// The part of a [`WorkloadCtx`] only generation and dedup read.
#[derive(Debug)]
struct GenTables {
    key_fnv: u64,
    /// Per spatial axis: divisor-rich extents are never padded.
    rich_s: [bool; MAX_SPATIAL_AXES],
    /// Per reduction axis: same.
    rich_r: [bool; MAX_REDUCE_AXES],
    divtab: DivisorTable,
    fallback: GeneBuf,
}

impl GenTables {
    fn new(ctx: &WorkloadCtx) -> GenTables {
        let mut rich_s = [false; MAX_SPATIAL_AXES];
        let mut rich_r = [false; MAX_REDUCE_AXES];
        let mut bases: Vec<u64> = Vec::new();
        if ctx.kind == SketchKind::MultiTile {
            let axes = ctx.spatial_extents.iter().zip(&mut rich_s);
            for (&e, rich) in axes.chain(ctx.reduce_extents.iter().zip(&mut rich_r)) {
                *rich = divisors(e).len() >= 6;
                bases.push(e);
                for q in [2u64, 4, 8, 16] {
                    bases.push(pad_to_quantum(e, q));
                }
            }
        }
        GenTables {
            key_fnv: workload_fnv(&ctx.workload),
            rich_s,
            rich_r,
            divtab: DivisorTable::build(bases.into_iter()),
            fallback: GeneBuf::from_schedule(&Program::fallback(&ctx.workload).schedule),
        }
    }
}

impl WorkloadCtx {
    /// Builds the context for `workload`.
    pub fn new(workload: &Workload) -> WorkloadCtx {
        WorkloadCtx::with_kind(workload, SketchKind::of(workload))
    }

    /// Builds the context for `kind` schedules of `workload` (a program
    /// may carry a sketch kind its workload would not sample).
    pub(crate) fn with_kind(workload: &Workload, kind: SketchKind) -> WorkloadCtx {
        let spatial_extents = workload.spatial_extents();
        let reduce_extents = workload.reduce_extents();
        let n_s = spatial_extents.len();
        let n_r = reduce_extents.len();
        assert!(n_s <= MAX_SPATIAL_AXES, "workload has too many spatial axes");
        assert!(n_r <= MAX_REDUCE_AXES, "workload has too many reduction axes");
        let output_elems = workload.output_elems();
        let (rr_rows, rr_reduce) = match *workload {
            Workload::Reduction { outer, reduce } => (outer, reduce),
            _ => (output_elems, reduce_extents.iter().product::<u64>().max(1)),
        };

        let num_operands = workload.num_operands();
        let (n_stmts, mut stmt_kinds, mut stmt_dsts) = (
            match kind {
                SketchKind::MultiTile => 2 * num_operands + 2,
                SketchKind::Simple => num_operands + 2,
                SketchKind::RowReduce => 3,
            },
            [StmtKind::Compute; MAX_ARENA_STMTS],
            [MemLevel::Register; MAX_ARENA_STMTS],
        );
        match kind {
            SketchKind::MultiTile => {
                for op in 0..num_operands {
                    stmt_kinds[op] = StmtKind::GlobalToShared;
                    stmt_dsts[op] = MemLevel::Shared;
                    stmt_kinds[num_operands + op] = StmtKind::SharedToRegister;
                    stmt_dsts[num_operands + op] = MemLevel::Register;
                }
                stmt_kinds[2 * num_operands] = StmtKind::Compute;
                stmt_kinds[2 * num_operands + 1] = StmtKind::WriteBack;
                stmt_dsts[2 * num_operands + 1] = MemLevel::Global;
            }
            SketchKind::Simple => {
                for k in stmt_kinds.iter_mut().take(num_operands) {
                    *k = StmtKind::GlobalLoad;
                }
                stmt_kinds[num_operands] = StmtKind::Compute;
                stmt_kinds[num_operands + 1] = StmtKind::WriteBack;
                stmt_dsts[num_operands + 1] = MemLevel::Global;
            }
            SketchKind::RowReduce => {
                stmt_kinds[0] = StmtKind::GlobalLoad;
                stmt_kinds[1] = StmtKind::Compute;
                stmt_kinds[2] = StmtKind::WriteBack;
                stmt_dsts[2] = MemLevel::Global;
            }
        }

        WorkloadCtx {
            workload: workload.clone(),
            kind,
            flops: workload.flops(),
            output_elems,
            operand_elems: workload.operand_elems(),
            num_operands,
            true_iters: spatial_extents
                .iter()
                .chain(&reduce_extents)
                .product::<u64>() as f64,
            spatial_extents,
            reduce_extents,
            n_s,
            n_r,
            rr_rows,
            rr_reduce,
            n_stmts,
            stmt_kinds,
            stmt_dsts,
            gen: OnceLock::new(),
        }
    }

    fn gen(&self) -> &GenTables {
        self.gen.get_or_init(|| GenTables::new(self))
    }

    /// The workload this context describes.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// The sketch kind every candidate of this context instantiates.
    pub fn kind(&self) -> SketchKind {
        self.kind
    }

    /// Number of buffer-statement slots per candidate.
    pub fn n_stmts(&self) -> usize {
        self.n_stmts
    }

    /// Statement kind of slot `j`.
    pub fn stmt_kind(&self, j: usize) -> StmtKind {
        self.stmt_kinds[j]
    }

    /// Destination memory level of statement slot `j`.
    pub fn stmt_dst(&self, j: usize) -> MemLevel {
        self.stmt_dsts[j]
    }

    /// Bytes of the global tensor statement slot `j` touches: an operand
    /// staged into shared memory, whatever a direct load or the writeback
    /// moves, and 0 for statements that never reach global memory.
    pub(crate) fn stmt_tensor_bytes(&self, j: usize, row: &StatsRow) -> f64 {
        match self.stmt_kinds[j] {
            StmtKind::GlobalToShared => (self.operand_elems[j] * ELEM_BYTES) as f64,
            StmtKind::GlobalLoad | StmtKind::WriteBack => row.stmt_global[j],
            StmtKind::SharedToRegister | StmtKind::Compute => 0.0,
        }
    }

    /// Packs a schedule into genes.
    ///
    /// # Panics
    /// Panics where [`WorkloadCtx::try_genes`] refuses the schedule.
    pub fn genes_from_schedule(&self, schedule: &Schedule) -> GeneBuf {
        self.try_genes(schedule).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Packs a schedule into genes, or says why it is not a schedule of
    /// this context's workload: its sketch kind differs, a split rank
    /// differs from the axis count, a factor is 0, a padded extent (the
    /// product of an axis's factors) is below the true extent, or an
    /// integer product the statistics form overflows a `u64`. Schedules
    /// arriving from checkpoints, store lines or the wire pass through here
    /// before any statistic is derived.
    pub fn try_genes(&self, schedule: &Schedule) -> Result<GeneBuf, String> {
        let kind = SketchKind::of_schedule(schedule);
        if kind != self.kind {
            return Err(format!(
                "a {kind:?} schedule cannot schedule {} (a {:?} workload)",
                self.workload.key(),
                self.kind
            ));
        }
        let extents = self.spatial_extents.iter().chain(&self.reduce_extents);
        let factors: Vec<u64> = match schedule {
            Schedule::MultiTile(t) => {
                t.spatial.iter().flatten().chain(t.reduce.iter().flatten()).copied().collect()
            }
            Schedule::Simple(c) => vec![c.threads, c.serial, c.vectorize],
            Schedule::RowReduce(c) => vec![c.rows_per_block, c.reduce_threads, c.serial],
        };
        if factors.contains(&0) {
            return Err(format!("a schedule factor is 0: {factors:?}"));
        }
        if let Schedule::MultiTile(t) = schedule {
            for (what, splits, axes) in
                [("spatial", t.spatial.len(), self.n_s), ("reduce", t.reduce.len(), self.n_r)]
            {
                if splits != axes {
                    return Err(format!(
                        "{what} split rank mismatch: {splits} splits for {axes} axes"
                    ));
                }
            }
            let splits = t.spatial.iter().map(|s| &s[..]);
            for (f, &e) in splits.chain(t.reduce.iter().map(|r| &r[..])).zip(extents.clone()) {
                if checked_product(f.iter().copied()).is_some_and(|p| p < e) {
                    return Err(format!("padded extent below true extent {e}: {f:?}"));
                }
            }
        }
        // The largest integer products the statistics form, each an upper
        // bound of the ones it stands for.
        let mul = |a: Option<u64>, b: u64| a?.checked_mul(b);
        let add = |a: Option<u64>, b: u64| a?.checked_add(b);
        let products = match schedule {
            // Padded iterations and writeback bytes; staging steps × outer
            // steps.
            Schedule::MultiTile(t) => [
                mul(checked_product(factors.iter().copied()), ELEM_BYTES),
                checked_product(t.reduce.iter().flat_map(|r| [r[0], r[0], r[1]])),
            ],
            // Covered elements: blocks × threads × serial × vector width.
            Schedule::Simple(_) => {
                [add(checked_product(factors.iter().copied()), self.output_elems), Some(0)]
            }
            // Shared bytes of every block's threads; the padded row.
            Schedule::RowReduce(c) => {
                let block_rows = add(Some(self.rr_rows), c.rows_per_block);
                [
                    mul(mul(block_rows, c.reduce_threads), ELEM_BYTES),
                    add(c.reduce_threads.checked_mul(c.serial), self.rr_reduce),
                ]
            }
        };
        let tensor_bytes = mul(checked_product(extents.copied()), ELEM_BYTES);
        if tensor_bytes.is_none() || products.contains(&None) {
            return Err(format!("the schedule's products overflow: {factors:?}"));
        }
        Ok(GeneBuf::from_schedule(schedule))
    }

    /// Unpacks genes into a schedule (allocates — measure boundary only).
    pub(crate) fn schedule_from_genes(&self, genes: &GeneBuf) -> Schedule {
        match self.kind {
            SketchKind::MultiTile => Schedule::MultiTile(TileConfig {
                spatial: genes.spatial[..self.n_s].to_vec(),
                reduce: genes.reduce[..self.n_r].to_vec(),
                unroll: genes.a0,
                vectorize: genes.a1,
            }),
            SketchKind::Simple => Schedule::Simple(SimpleConfig {
                threads: genes.a0,
                serial: genes.a1,
                vectorize: genes.a2,
            }),
            SketchKind::RowReduce => Schedule::RowReduce(ReduceConfig {
                rows_per_block: genes.a0,
                reduce_threads: genes.a1,
                serial: genes.a2,
            }),
        }
    }

    /// Materializes genes into a full [`Program`].
    pub(crate) fn program_from_genes(&self, genes: &GeneBuf) -> Program {
        Program::new(self.workload.clone(), self.schedule_from_genes(genes))
    }

    /// FNV-1a fingerprint of the genes: the workload key's hash, then
    /// [`GeneBuf::fingerprint`]'s stream.
    pub(crate) fn fingerprint_genes(&self, genes: &GeneBuf) -> u64 {
        genes.fingerprint(self.gen().key_fnv, self.kind, self.n_s, self.n_r)
    }

    /// Samples one padded extent: rich extents return immediately (no
    /// draw), otherwise one `gen_bool` and possibly one quantum draw — the
    /// way TVM pads prime-ish extents to unlock tiling.
    #[inline]
    fn sample_padded_extent(extent: u64, rich: bool, rng: &mut impl Rng) -> u64 {
        if rich || rng.gen_bool(0.5) {
            return extent;
        }
        let quantum = [2u64, 4, 8, 16][rng.gen_range(0..4)];
        pad_to_quantum(extent, quantum)
    }

    /// Re-samples the `[block, vthread, thread, serial0, serial1]` split of
    /// spatial axis `i` (`i < n_s`) or the `[outer, mid, inner]` split of
    /// reduction axis `i - n_s`, padding the extent first.
    #[inline]
    fn sample_axis(&self, t: &GenTables, g: &mut GeneBuf, i: usize, rng: &mut impl Rng) {
        let (extent, rich, out) = if i < self.n_s {
            (self.spatial_extents[i], t.rich_s[i], &mut g.spatial[i][..])
        } else {
            let r = i - self.n_s;
            (self.reduce_extents[r], t.rich_r[r], &mut g.reduce[r][..])
        };
        let padded = Self::sample_padded_extent(extent, rich, rng);
        draw_split(padded, out, rng, |n| t.divtab.divisors(n));
    }

    /// Draws one raw (unvalidated) candidate.
    fn sample_genes_unchecked(&self, t: &GenTables, rng: &mut impl Rng) -> GeneBuf {
        let mut g = GeneBuf::default();
        match self.kind {
            SketchKind::MultiTile => {
                for i in 0..self.n_s + self.n_r {
                    self.sample_axis(t, &mut g, i, rng);
                }
                g.a0 = pick(&UNROLL_CANDIDATES, rng);
                g.a1 = pick(&VECTORIZE_CANDIDATES, rng);
            }
            SketchKind::Simple => {
                g.a0 = pick(&SIMPLE_THREADS, rng);
                g.a1 = pick(&SIMPLE_SERIAL, rng);
                g.a2 = pick(&VECTORIZE_CANDIDATES, rng);
            }
            SketchKind::RowReduce => {
                g.a1 = pick(reduce_thread_options(self.rr_reduce), rng);
                g.a0 = pick(&ROW_CANDIDATES, rng);
                g.a2 = pick(&ROW_CANDIDATES, rng);
            }
        }
        g
    }

    /// Samples a valid candidate: 64 rejection tries, then the
    /// deterministic fallback of [`Program::fallback`].
    pub fn sample_genes(&self, limits: &HardwareLimits, rng: &mut impl Rng) -> GeneBuf {
        let t = self.gen();
        for _ in 0..64 {
            let g = self.sample_genes_unchecked(t, rng);
            if self.genes_valid(&g, limits) {
                return g;
            }
        }
        t.fallback
    }

    /// Mutates one gene: a spatial-axis split, a reduction-axis split, the
    /// unroll depth or the vector width (for the simple sketches: one of
    /// the three knobs). 16 rejection tries, then the unchanged parent.
    pub(crate) fn mutate_genes(
        &self,
        parent: &GeneBuf,
        limits: &HardwareLimits,
        rng: &mut impl Rng,
    ) -> GeneBuf {
        let t = self.gen();
        for _ in 0..16 {
            let mut child = *parent;
            match self.kind {
                SketchKind::MultiTile => {
                    let gene = rng.gen_range(0..self.n_s + self.n_r + 2);
                    if gene < self.n_s + self.n_r {
                        self.sample_axis(t, &mut child, gene, rng);
                    } else if gene == self.n_s + self.n_r {
                        child.a0 = pick(&UNROLL_CANDIDATES, rng);
                    } else {
                        child.a1 = pick(&VECTORIZE_CANDIDATES, rng);
                    }
                }
                SketchKind::Simple => match rng.gen_range(0..3) {
                    0 => child.a0 = pick(&SIMPLE_THREADS, rng),
                    1 => child.a1 = pick(&SIMPLE_SERIAL, rng),
                    _ => child.a2 = pick(&VECTORIZE_CANDIDATES, rng),
                },
                SketchKind::RowReduce => match rng.gen_range(0..3) {
                    0 => child.a0 = pick(&ROW_CANDIDATES, rng),
                    // Mutation draws from a fixed list, not the sampler's
                    // extent-dependent options.
                    1 => child.a1 = pick(&REDUCE_THREADS[..5], rng),
                    _ => child.a2 = pick(&ROW_CANDIDATES, rng),
                },
            }
            if self.genes_valid(&child, limits) {
                return child;
            }
        }
        *parent
    }

    /// Recombines two parents of this context: multi-tile parents exchange
    /// whole per-axis splits and annotations gene by gene, the simple
    /// sketches pick each knob from a random parent. 16 rejection tries,
    /// then parent `a`.
    pub(crate) fn crossover_genes(
        &self,
        a: &GeneBuf,
        b: &GeneBuf,
        limits: &HardwareLimits,
        rng: &mut impl Rng,
    ) -> GeneBuf {
        for _ in 0..16 {
            let mut child = *a;
            match self.kind {
                SketchKind::MultiTile => {
                    for i in 0..self.n_s {
                        if rng.gen_bool(0.5) {
                            child.spatial[i] = b.spatial[i];
                        }
                    }
                    for i in 0..self.n_r {
                        if rng.gen_bool(0.5) {
                            child.reduce[i] = b.reduce[i];
                        }
                    }
                    if rng.gen_bool(0.5) {
                        child.a0 = b.a0;
                    }
                    if rng.gen_bool(0.5) {
                        child.a1 = b.a1;
                    }
                }
                SketchKind::Simple | SketchKind::RowReduce => {
                    if rng.gen_bool(0.5) {
                        child.a0 = b.a0;
                    }
                    if rng.gen_bool(0.5) {
                        child.a1 = b.a1;
                    }
                    if rng.gen_bool(0.5) {
                        child.a2 = b.a2;
                    }
                }
            }
            if self.genes_valid(&child, limits) {
                return child;
            }
        }
        *a
    }

    /// Allocation-free check of the hard hardware limits: threads per
    /// block, shared memory, registers (up to the spill slack), virtual
    /// threads, block count, and (multi-tile) at most 1024 output elements
    /// per thread, since pathological serial tails make a program
    /// unmeasurable in practice.
    pub(crate) fn genes_valid(&self, genes: &GeneBuf, limits: &HardwareLimits) -> bool {
        let (threads, shared, regs, vthreads, blocks, ept) = match self.kind {
            SketchKind::MultiTile => {
                let mut blocks = 1u64;
                let mut vthreads = 1u64;
                let mut threads = 1u64;
                let mut ept_serial = 1u64;
                let mut block_tile = [1u64; MAX_SPATIAL_AXES];
                let mut thread_tile = [1u64; MAX_SPATIAL_AXES];
                for (i, s) in genes.spatial[..self.n_s].iter().enumerate() {
                    blocks *= s[0];
                    vthreads *= s[1];
                    threads *= s[2];
                    ept_serial *= s[3] * s[4];
                    block_tile[i] = s[1] * s[2] * s[3] * s[4];
                    thread_tile[i] = s[3] * s[4];
                }
                let ept = vthreads * ept_serial;
                let mut reduce_chunk = [1u64; MAX_REDUCE_AXES];
                let mut reduce_inner = [1u64; MAX_REDUCE_AXES];
                for (i, r) in genes.reduce[..self.n_r].iter().enumerate() {
                    reduce_chunk[i] = r[1] * r[2];
                    reduce_inner[i] = r[2];
                }
                let mut fp = [0u64; 2];
                let n_fp = self.workload.operand_tile_elems_into(
                    &self.spatial_extents,
                    &self.reduce_extents,
                    &block_tile[..self.n_s],
                    &reduce_chunk[..self.n_r],
                    &mut fp,
                );
                let shared: u64 = fp[..n_fp].iter().sum::<u64>() * ELEM_BYTES;
                let n_fp = self.workload.operand_tile_elems_into(
                    &self.spatial_extents,
                    &self.reduce_extents,
                    &thread_tile[..self.n_s],
                    &reduce_inner[..self.n_r],
                    &mut fp,
                );
                let regs = ept + fp[..n_fp].iter().sum::<u64>() + 16;
                (threads, shared, regs, vthreads, blocks, ept)
            }
            SketchKind::Simple => {
                let per_block = genes.a0 * genes.a1 * genes.a2;
                let blocks = self.output_elems.div_ceil(per_block).max(1);
                (genes.a0, 0, 8 + genes.a1 * genes.a2, 1, blocks, 0)
            }
            SketchKind::RowReduce => {
                let threads = genes.a0 * genes.a1;
                let blocks = self.rr_rows.div_ceil(genes.a0).max(1);
                let shared = threads * ELEM_BYTES;
                (threads, shared, 8 + genes.a2, 1, blocks, 0)
            }
        };
        if threads == 0 || threads > limits.max_threads_per_block {
            return false;
        }
        if shared > limits.max_shared_bytes_per_block {
            return false;
        }
        if regs > limits.register_reject_bound() {
            return false;
        }
        if vthreads > limits.max_vthreads {
            return false;
        }
        if blocks == 0 || blocks > u32::MAX as u64 {
            return false;
        }
        if self.kind == SketchKind::MultiTile && ept > 1024 {
            return false;
        }
        true
    }

    /// Computes the full statistics row for `genes`: launch geometry,
    /// footprints, traffic, padding waste and, per statement slot, its
    /// operations, global and shared bytes and innermost run.
    pub fn compute_row(&self, genes: &GeneBuf, row: &mut StatsRow) {
        match self.kind {
            SketchKind::MultiTile => self.compute_row_multitile(genes, row),
            SketchKind::Simple => self.compute_row_simple(genes, row),
            SketchKind::RowReduce => self.compute_row_rowreduce(genes, row),
        }
    }

    fn compute_row_multitile(&self, genes: &GeneBuf, row: &mut StatsRow) {
        let d = self.derive_mt(genes);
        row.threads_per_block = d.threads;
        row.num_blocks = d.num_blocks;
        row.vthreads = d.vthreads;
        row.regs_per_thread = d.regs;
        row.shared_bytes_per_block = d.shared_bytes_per_block;
        row.flops_total = d.flops_total;
        row.global_bytes = d.global_bytes;
        row.shared_traffic_bytes = d.shared_traffic;
        row.padding_waste = d.padding_waste;
        row.per_thread_flops = d.per_thread_flops;
        row.per_thread_reg_accesses = d.per_thread_flops * 1.5;
        row.unroll = genes.a0;
        row.vectorize = genes.a1;
        row.n_stmts = self.n_stmts;
        let n_ops_addressing_per_byte = 0.02;
        for op in 0..self.num_operands {
            let bytes = d.num_blocks as f64
                * d.outer_steps as f64
                * (d.block_fp[op] * ELEM_BYTES) as f64;
            row.stmt_n_ops[op] = bytes * n_ops_addressing_per_byte;
            row.stmt_global[op] = bytes;
            row.stmt_shared[op] = bytes;
            row.stmt_innermost[op] = d.contig_g[op];
        }
        for op in 0..self.num_operands {
            let j = self.num_operands + op;
            let bytes =
                d.shared_traffic * (d.thread_fp[op] as f64) / (d.thread_fp_sum.max(1) as f64);
            row.stmt_n_ops[j] = bytes * n_ops_addressing_per_byte;
            row.stmt_global[j] = 0.0;
            row.stmt_shared[j] = bytes;
            row.stmt_innermost[j] = d.contig_t[op];
        }
        let jc = 2 * self.num_operands;
        row.stmt_n_ops[jc] = d.flops_total;
        row.stmt_global[jc] = 0.0;
        row.stmt_shared[jc] = 0.0;
        row.stmt_innermost[jc] = d.out_contig_t;
        let jw = jc + 1;
        row.stmt_n_ops[jw] = d.store_bytes * n_ops_addressing_per_byte;
        row.stmt_global[jw] = d.store_bytes;
        row.stmt_shared[jw] = 0.0;
        row.stmt_innermost[jw] = d.wb_innermost;
    }

    fn compute_row_simple(&self, genes: &GeneBuf, row: &mut StatsRow) {
        let len = self.output_elems;
        let (threads, serial, vectorize) = (genes.a0, genes.a1, genes.a2);
        let per_block = threads * serial * vectorize;
        let num_blocks = len.div_ceil(per_block).max(1);
        let covered = num_blocks * threads * serial * vectorize;
        let padding_waste = covered as f64 / len as f64;
        let flops_total = self.flops * padding_waste.min(2.0);

        let mut load_bytes = 0.0f64;
        for &e in &self.operand_elems {
            load_bytes += (e * ELEM_BYTES) as f64;
        }
        let store_bytes = (len * ELEM_BYTES) as f64;
        let contig = (threads * vectorize).min(len);

        for (op, &e) in self.operand_elems.iter().enumerate() {
            row.stmt_n_ops[op] = 0.0;
            row.stmt_global[op] = (e * ELEM_BYTES) as f64;
            row.stmt_shared[op] = 0.0;
            row.stmt_innermost[op] = contig;
        }
        let jc = self.num_operands;
        row.stmt_n_ops[jc] = flops_total;
        row.stmt_global[jc] = 0.0;
        row.stmt_shared[jc] = 0.0;
        row.stmt_innermost[jc] = vectorize;
        let jw = jc + 1;
        row.stmt_n_ops[jw] = 0.0;
        row.stmt_global[jw] = store_bytes;
        row.stmt_shared[jw] = 0.0;
        row.stmt_innermost[jw] = contig;

        let per_thread_flops = flops_total / (num_blocks as f64 * threads as f64);
        row.threads_per_block = threads;
        row.num_blocks = num_blocks;
        row.vthreads = 1;
        row.regs_per_thread = 8 + serial * vectorize;
        row.shared_bytes_per_block = 0;
        row.flops_total = flops_total;
        row.global_bytes = load_bytes + store_bytes;
        row.shared_traffic_bytes = 0.0;
        row.padding_waste = padding_waste;
        row.per_thread_flops = per_thread_flops;
        row.per_thread_reg_accesses = per_thread_flops * 2.0;
        row.unroll = 0;
        row.vectorize = vectorize;
        row.n_stmts = self.n_stmts;
    }

    fn compute_row_rowreduce(&self, genes: &GeneBuf, row: &mut StatsRow) {
        let (rows, r) = (self.rr_rows, self.rr_reduce);
        let (rows_per_block, reduce_threads, serial) = (genes.a0, genes.a1, genes.a2);
        let num_blocks = rows.div_ceil(rows_per_block).max(1);
        let threads = rows_per_block * reduce_threads;
        let chunk = reduce_threads * serial;
        let steps = r.div_ceil(chunk).max(1);
        let padded = steps * chunk;
        let padding_waste = (padded as f64 / r as f64).max(1.0)
            * (num_blocks * rows_per_block) as f64
            / rows as f64;
        let flops_total = self.flops * padding_waste;

        let load_bytes = (rows * r * ELEM_BYTES) as f64;
        let store_bytes = (rows * ELEM_BYTES) as f64;

        row.stmt_n_ops[0] = 0.0;
        row.stmt_global[0] = load_bytes;
        row.stmt_shared[0] = 0.0;
        row.stmt_innermost[0] = (serial * reduce_threads).min(r);
        row.stmt_n_ops[1] = flops_total;
        row.stmt_global[1] = 0.0;
        row.stmt_shared[1] = (num_blocks * threads * ELEM_BYTES) as f64
            * (reduce_threads as f64).log2().max(1.0);
        row.stmt_innermost[1] = serial;
        row.stmt_n_ops[2] = 0.0;
        row.stmt_global[2] = store_bytes;
        row.stmt_shared[2] = 0.0;
        row.stmt_innermost[2] = rows_per_block.min(rows);

        let per_thread_flops = flops_total / (num_blocks as f64 * threads as f64);
        row.threads_per_block = threads;
        row.num_blocks = num_blocks;
        row.vthreads = 1;
        row.regs_per_thread = 8 + serial;
        row.shared_bytes_per_block = threads * ELEM_BYTES;
        row.flops_total = flops_total;
        row.global_bytes = load_bytes + store_bytes;
        row.shared_traffic_bytes = (num_blocks * threads * ELEM_BYTES) as f64 * 2.0;
        row.padding_waste = padding_waste;
        row.per_thread_flops = per_thread_flops;
        row.per_thread_reg_accesses = per_thread_flops * 2.0;
        row.unroll = 0;
        row.vectorize = 1;
        row.n_stmts = self.n_stmts;
    }

    /// Fills the data-flow row for `genes`: global→shared staging and
    /// shared→register loads per operand, then compute and writeback.
    /// Empty (`n == 0`) for non-multi-tile sketches.
    pub fn flow_row(&self, genes: &GeneBuf, row: &mut FlowRow) {
        if self.kind != SketchKind::MultiTile {
            row.n = 0;
            return;
        }
        let d = self.derive_mt(genes);
        row.n = self.n_stmts;
        for op in 0..self.num_operands {
            let bytes = d.num_blocks as f64
                * d.outer_steps as f64
                * (d.block_fp[op] * ELEM_BYTES) as f64;
            row.src[op] = MemLevel::Global;
            row.dst[op] = MemLevel::Shared;
            row.bytes[op] = bytes;
            row.alloc_bytes[op] = (d.block_fp[op] * ELEM_BYTES) as f64;
            row.steps[op] = d.outer_steps as f64;
            row.contig[op] = d.contig_g[op];
            row.threads[op] = d.threads;
            row.reuse[op] = bytes / ((self.operand_elems[op] * ELEM_BYTES) as f64);
            row.vec[op] = genes.a1;
            row.ops[op] = 0.0;
        }
        for op in 0..self.num_operands {
            let j = self.num_operands + op;
            let bytes =
                d.shared_traffic * (d.thread_fp[op] as f64) / (d.thread_fp_sum.max(1) as f64);
            row.src[j] = MemLevel::Shared;
            row.dst[j] = MemLevel::Register;
            row.bytes[j] = bytes;
            row.alloc_bytes[j] = (d.thread_fp[op] * ELEM_BYTES) as f64;
            row.steps[j] = (d.mid_steps * d.outer_steps) as f64;
            row.contig[j] = d.contig_t[op];
            row.threads[j] = d.threads;
            row.reuse[j] = if d.block_fp[op] > 0 {
                bytes / ((d.block_fp[op] * ELEM_BYTES) as f64 * d.num_blocks as f64)
            } else {
                0.0
            };
            row.vec[j] = 1;
            row.ops[j] = 0.0;
        }
        let jc = 2 * self.num_operands;
        row.src[jc] = MemLevel::Register;
        row.dst[jc] = MemLevel::Register;
        row.bytes[jc] = 0.0;
        row.alloc_bytes[jc] = (d.ept * ELEM_BYTES) as f64;
        row.steps[jc] = d.padded_r_prod as f64;
        row.contig[jc] = d.out_contig_t;
        row.threads[jc] = d.threads;
        row.reuse[jc] = 1.0;
        row.vec[jc] = 1;
        row.ops[jc] = d.flops_total;
        let jw = jc + 1;
        row.src[jw] = MemLevel::Register;
        row.dst[jw] = MemLevel::Global;
        row.bytes[jw] = d.store_bytes;
        row.alloc_bytes[jw] = d.store_bytes;
        row.steps[jw] = 1.0;
        row.contig[jw] = d.out_contig_g;
        row.threads[jw] = d.threads;
        row.reuse[jw] = 1.0;
        row.vec[jw] = 1;
        row.ops[jw] = 0.0;
    }

    /// All multi-tile intermediates, computed once and shared by the stats
    /// and flow row fillers.
    fn derive_mt(&self, genes: &GeneBuf) -> MtDerived {
        let mut num_blocks = 1u64;
        let mut vthreads = 1u64;
        let mut threads = 1u64;
        let mut ept_serial = 1u64;
        let mut padded_s_prod = 1u64;
        let mut block_tile = [1u64; MAX_SPATIAL_AXES];
        let mut thread_tile = [1u64; MAX_SPATIAL_AXES];
        for (i, s) in genes.spatial[..self.n_s].iter().enumerate() {
            num_blocks *= s[0];
            vthreads *= s[1];
            threads *= s[2];
            ept_serial *= s[3] * s[4];
            block_tile[i] = s[1] * s[2] * s[3] * s[4];
            thread_tile[i] = s[3] * s[4];
            padded_s_prod *= s[0] * s[1] * s[2] * s[3] * s[4];
        }
        let ept = vthreads * ept_serial;
        let mut outer_steps = 1u64;
        let mut mid_steps = 1u64;
        let mut padded_r_prod = 1u64;
        let mut reduce_chunk = [1u64; MAX_REDUCE_AXES];
        let mut reduce_inner = [1u64; MAX_REDUCE_AXES];
        for (i, r) in genes.reduce[..self.n_r].iter().enumerate() {
            outer_steps *= r[0];
            mid_steps *= r[0] * r[1];
            padded_r_prod *= r[0] * r[1] * r[2];
            reduce_chunk[i] = r[1] * r[2];
            reduce_inner[i] = r[2];
        }
        let padded_iters = (padded_s_prod * padded_r_prod) as f64;
        let padding_waste = padded_iters / self.true_iters;
        let flops_total = self.flops * padding_waste;

        let mut block_fp = [0u64; 2];
        self.workload.operand_tile_elems_into(
            &self.spatial_extents,
            &self.reduce_extents,
            &block_tile[..self.n_s],
            &reduce_chunk[..self.n_r],
            &mut block_fp,
        );
        let shared_bytes_per_block: u64 =
            block_fp[..self.num_operands].iter().sum::<u64>() * ELEM_BYTES;
        let mut thread_fp = [0u64; 2];
        self.workload.operand_tile_elems_into(
            &self.spatial_extents,
            &self.reduce_extents,
            &thread_tile[..self.n_s],
            &reduce_inner[..self.n_r],
            &mut thread_fp,
        );
        let thread_fp_sum: u64 = thread_fp[..self.num_operands].iter().sum();
        let regs = ept + thread_fp_sum + 16;

        let mut per_step_load_bytes = 0.0f64;
        for &e in &block_fp[..self.num_operands] {
            per_step_load_bytes += (e * ELEM_BYTES) as f64;
        }
        let load_bytes = num_blocks as f64 * outer_steps as f64 * per_step_load_bytes;
        let store_bytes = padded_s_prod as f64 * ELEM_BYTES as f64;
        let global_bytes = load_bytes + store_bytes;

        let mut per_iter_frag_bytes = 0.0f64;
        for &e in &thread_fp[..self.num_operands] {
            per_iter_frag_bytes += (e * ELEM_BYTES) as f64;
        }
        let shared_traffic = num_blocks as f64 * threads as f64 * mid_steps as f64
            * per_iter_frag_bytes
            * vthreads as f64;

        let per_thread_flops = flops_total / (num_blocks as f64 * threads as f64);

        let mut contig_g = [0u64; 3];
        let n_contig = self.workload.innermost_contig_into(
            &self.spatial_extents,
            &self.reduce_extents,
            &block_tile[..self.n_s],
            &reduce_chunk[..self.n_r],
            &mut contig_g,
        );
        let mut contig_t = [0u64; 3];
        self.workload.innermost_contig_into(
            &self.spatial_extents,
            &self.reduce_extents,
            &thread_tile[..self.n_s],
            &reduce_inner[..self.n_r],
            &mut contig_t,
        );
        let out_contig_g = contig_g[n_contig - 1];
        let out_contig_t = contig_t[n_contig - 1];
        let last = genes.spatial[self.n_s - 1];
        let wb_innermost = out_contig_g.max(last[2] * last[3] * last[4]);

        MtDerived {
            num_blocks,
            threads,
            vthreads,
            ept,
            outer_steps,
            mid_steps,
            padded_r_prod,
            padding_waste,
            flops_total,
            block_fp,
            thread_fp,
            thread_fp_sum,
            shared_bytes_per_block,
            regs,
            store_bytes,
            global_bytes,
            shared_traffic,
            per_thread_flops,
            contig_g,
            contig_t,
            out_contig_g,
            out_contig_t,
            wb_innermost,
        }
    }
}

/// Multi-tile intermediates shared between stats and flow row fillers.
struct MtDerived {
    num_blocks: u64,
    threads: u64,
    vthreads: u64,
    ept: u64,
    outer_steps: u64,
    mid_steps: u64,
    padded_r_prod: u64,
    padding_waste: f64,
    flops_total: f64,
    block_fp: [u64; 2],
    thread_fp: [u64; 2],
    thread_fp_sum: u64,
    shared_bytes_per_block: u64,
    regs: u64,
    store_bytes: f64,
    global_bytes: f64,
    shared_traffic: f64,
    per_thread_flops: f64,
    contig_g: [u64; 3],
    contig_t: [u64; 3],
    out_contig_g: u64,
    out_contig_t: u64,
    wb_innermost: u64,
}

/// `Π values`, or `None` if it overflows a `u64`.
fn checked_product(values: impl IntoIterator<Item = u64>) -> Option<u64> {
    values.into_iter().try_fold(1u64, |p, v| p.checked_mul(v))
}

/// One uniform draw from `options`.
#[inline]
fn pick(options: &[u64], rng: &mut impl Rng) -> u64 {
    options[rng.gen_range(0..options.len())]
}

/// Below this many rows the stats fill stays on the calling thread, as it
/// did before the arena was filled in place: at the default pool (2 048)
/// the work is cheaper than the spawns, and worker threads a small campaign
/// never had would each grow the allocator's footprint. A fixed constant,
/// like `pruner_nn::gemm`'s `PAR_MIN_WORK`.
const PAR_MIN_ROWS: usize = 8192;

/// Hasher for sets keyed by schedule fingerprints. The key already is an
/// FNV hash, so hashing it again is wasted work; one fold brings the
/// well-mixed high half down into the bits the table indexes with
/// (word-wise FNV multiplies only carry entropy upward).
#[derive(Default)]
pub(crate) struct FpHasher(u64);

impl Hasher for FpHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("fingerprint sets hash u64 keys only");
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v ^ (v >> 32);
    }
}

/// A set of schedule fingerprints.
pub(crate) type FpSet = HashSet<u64, BuildHasherDefault<FpHasher>>;

// Gene columns: every column is a flat `u64` buffer with a fixed number of
// entries per candidate (`CandidateArena::gene_strides`).
const SPATIAL: usize = 0;
const REDUCE: usize = 1;
const ANN: usize = 2;
const FP: usize = 3;

// Stats columns, one entry per candidate. The u64 block is the launch
// geometry and annotations, then one innermost-run column per statement
// slot; the f64 block is the six scalars, then (n_ops, global, shared) per
// slot — so a context with `n_stmts` slots uses a prefix of each block.
const THREADS: usize = 0;
const NUM_BLOCKS: usize = 1;
const VTHREADS: usize = 2;
const REGS: usize = 3;
const SHARED_BYTES: usize = 4;
const UNROLL: usize = 5;
const VECTORIZE: usize = 6;
const STMT_INNERMOST: usize = 7;
const N_U: usize = STMT_INNERMOST + MAX_ARENA_STMTS;
const FLOPS_TOTAL: usize = 0;
const GLOBAL_BYTES: usize = 1;
const SHARED_TRAFFIC: usize = 2;
const PADDING_WASTE: usize = 3;
const PTF: usize = 4;
const PTRA: usize = 5;
const STMT_N_OPS: usize = 6;
const STMT_GLOBAL: usize = 7;
const STMT_SHARED: usize = 8;
const N_F: usize = STMT_N_OPS + 3 * MAX_ARENA_STMTS;

impl StatsRow {
    /// The row as one value per stats column, in column order.
    fn column_values(&self) -> ([u64; N_U], [f64; N_F]) {
        let mut u = [0u64; N_U];
        let mut f = [0.0f64; N_F];
        u[THREADS] = self.threads_per_block;
        u[NUM_BLOCKS] = self.num_blocks;
        u[VTHREADS] = self.vthreads;
        u[REGS] = self.regs_per_thread;
        u[SHARED_BYTES] = self.shared_bytes_per_block;
        u[UNROLL] = self.unroll;
        u[VECTORIZE] = self.vectorize;
        u[STMT_INNERMOST..].copy_from_slice(&self.stmt_innermost);
        f[FLOPS_TOTAL] = self.flops_total;
        f[GLOBAL_BYTES] = self.global_bytes;
        f[SHARED_TRAFFIC] = self.shared_traffic_bytes;
        f[PADDING_WASTE] = self.padding_waste;
        f[PTF] = self.per_thread_flops;
        f[PTRA] = self.per_thread_reg_accesses;
        for j in 0..MAX_ARENA_STMTS {
            f[STMT_N_OPS + 3 * j] = self.stmt_n_ops[j];
            f[STMT_GLOBAL + 3 * j] = self.stmt_global[j];
            f[STMT_SHARED + 3 * j] = self.stmt_shared[j];
        }
        (u, f)
    }
}

/// Grows a column to at least `need` entries. Columns never shrink — they
/// keep their length across [`CandidateArena::reset`], so a reused arena
/// neither allocates nor zero-fills.
fn grow<T: Copy + Default>(col: &mut Vec<T>, need: usize) {
    if col.is_empty() {
        // Nothing to preserve: a zeroed allocation maps untouched pages,
        // so the first touch happens in the (parallel) writers instead of
        // a serial fill here.
        *col = vec![T::default(); need];
    } else if col.len() < need {
        col.resize(need, T::default());
    }
}

/// Mutable views of rows `lo..hi` of every column (`strides[c]` entries per
/// row; a zero stride yields an empty view).
fn rows_mut<T, const N: usize>(
    cols: &mut [Vec<T>; N],
    strides: [usize; N],
    lo: usize,
    hi: usize,
) -> [&mut [T]; N] {
    let mut c = 0;
    cols.each_mut().map(|col| {
        let s = strides[c];
        c += 1;
        &mut col[lo * s..hi * s]
    })
}

/// Splits every column view at row `rows`.
fn split_rows<'a, T, const N: usize>(
    cols: [&'a mut [T]; N],
    strides: [usize; N],
    rows: usize,
) -> ([&'a mut [T]; N], [&'a mut [T]; N]) {
    let mut tails: [&'a mut [T]; N] = std::array::from_fn(|_| Default::default());
    let mut c = 0;
    let heads = cols.map(|col| {
        let (head, tail) = col.split_at_mut(rows * strides[c]);
        tails[c] = tail;
        c += 1;
        head
    });
    (heads, tails)
}

/// Copies `n` rows of `src` starting at row `from` to row `at` of `dst`.
fn copy_rows<T: Copy, const N: usize>(
    dst: &mut [Vec<T>; N],
    src: &[Vec<T>; N],
    strides: [usize; N],
    at: usize,
    from: usize,
    n: usize,
) {
    for ((d, s), stride) in dst.iter_mut().zip(src).zip(strides) {
        d[at * stride..(at + n) * stride]
            .copy_from_slice(&s[from * stride..(from + n) * stride]);
    }
}

/// Moves the rows of `col[start..]` whose `mask` entry is set down to a
/// contiguous run beginning at row `start`, keeping their order.
fn compact_rows<T: Copy>(col: &mut [T], stride: usize, start: usize, mask: &[bool]) {
    if stride == 0 {
        return;
    }
    let mut w = start;
    for (k, &keep) in mask.iter().enumerate() {
        if keep {
            let i = start + k;
            if w != i {
                col.copy_within(i * stride..(i + 1) * stride, w * stride);
            }
            w += 1;
        }
    }
}

/// Reconstructs candidate `i`'s genes from the gene columns.
fn read_genes(cols: &[Vec<u64>; 4], ctx: &WorkloadCtx, i: usize) -> GeneBuf {
    let (n_s, n_r) = (ctx.n_s, ctx.n_r);
    let mut g = GeneBuf::default();
    for (a, s) in g.spatial[..n_s].iter_mut().enumerate() {
        let base = (i * n_s + a) * 5;
        s.copy_from_slice(&cols[SPATIAL][base..base + 5]);
    }
    for (a, r) in g.reduce[..n_r].iter_mut().enumerate() {
        let base = (i * n_r + a) * 3;
        r.copy_from_slice(&cols[REDUCE][base..base + 3]);
    }
    g.a0 = cols[ANN][i * 3];
    g.a1 = cols[ANN][i * 3 + 1];
    g.a2 = cols[ANN][i * 3 + 2];
    g
}

/// Writes one candidate's genes and their fingerprint at row `k` of `band`.
fn write_genes(band: &mut [&mut [u64]; 4], ctx: &WorkloadCtx, k: usize, genes: &GeneBuf) {
    let (n_s, n_r) = (ctx.n_s, ctx.n_r);
    for (a, s) in genes.spatial[..n_s].iter().enumerate() {
        band[SPATIAL][(k * n_s + a) * 5..][..5].copy_from_slice(s);
    }
    for (a, r) in genes.reduce[..n_r].iter().enumerate() {
        band[REDUCE][(k * n_r + a) * 3..][..3].copy_from_slice(r);
    }
    band[ANN][k * 3..][..3].copy_from_slice(&[genes.a0, genes.a1, genes.a2]);
    band[FP][k] = ctx.fingerprint_genes(genes);
}

/// Writes one stats row at row `k` of a band: the prefix of each block
/// that the row's statement count uses (the other columns' views are
/// empty).
fn write_stats(u: &mut [&mut [u64]; N_U], f: &mut [&mut [f64]; N_F], k: usize, row: &StatsRow) {
    let (ru, rf) = row.column_values();
    for (col, v) in u[..STMT_INNERMOST + row.n_stmts].iter_mut().zip(ru) {
        col[k] = v;
    }
    for (col, v) in f[..STMT_N_OPS + 3 * row.n_stmts].iter_mut().zip(rf) {
        col[k] = v;
    }
}

/// Struct-of-arrays candidate pool: one flat column per gene family and
/// per derived statistic, with program identity = index.
///
/// Statement columns are stored slot-major (one column per statement slot
/// across all candidates), so PSA's accumulation loops run contiguously
/// over candidates and auto-vectorize while preserving each candidate's
/// ascending-slot accumulation order.
///
/// The arena is built to be **reused**: [`CandidateArena::reset`] drops the
/// candidates but keeps every column's storage, and every O(pool) stage
/// (generation, stats, dedup) writes the columns in place. A column's
/// `Vec` length is therefore only its initialized extent — the logical
/// lengths are `len` (genes, fingerprints) and `stats_len` (statistics).
#[derive(Debug)]
pub struct CandidateArena {
    ctx: Arc<WorkloadCtx>,
    len: usize,
    /// Number of leading candidates whose stats columns are filled. Stats
    /// are computed lazily ([`CandidateArena::ensure_stats`]) so duplicate
    /// candidates dropped by dedup never pay for a stats row; the filled
    /// region is always a contiguous prefix.
    stats_len: usize,
    /// Spatial splits, reduction splits, annotations, fingerprint.
    genes: [Vec<u64>; 4],
    stat_u: [Vec<u64>; N_U],
    stat_f: [Vec<f64>; N_F],
}

impl Default for CandidateArena {
    /// An empty arena without storage, for a long-lived owner that lends it
    /// out: it is aimed at a one-element placeholder workload until
    /// [`CandidateArena::reset`] targets it at a real one.
    fn default() -> CandidateArena {
        let placeholder = Workload::elementwise(EwKind::Relu, 1);
        CandidateArena::new(Arc::new(WorkloadCtx::new(&placeholder)))
    }
}

impl CandidateArena {
    /// Creates an empty arena for `ctx`.
    pub fn new(ctx: Arc<WorkloadCtx>) -> CandidateArena {
        Self::with_capacity(ctx, 0)
    }

    /// Creates an empty arena whose gene and fingerprint columns are
    /// pre-sized for `cap` candidates. Stats columns are sized on demand by
    /// [`CandidateArena::ensure_stats`]: a raw arena never pays for them.
    pub fn with_capacity(ctx: Arc<WorkloadCtx>, cap: usize) -> CandidateArena {
        let mut arena = CandidateArena {
            ctx,
            len: 0,
            stats_len: 0,
            genes: Default::default(),
            stat_u: Default::default(),
            stat_f: Default::default(),
        };
        arena.grow_genes(cap);
        arena
    }

    /// Drops every candidate and re-targets the arena at `ctx` (any rank,
    /// any statement count), keeping each column's storage for the next
    /// round.
    pub fn reset(&mut self, ctx: Arc<WorkloadCtx>) {
        self.ctx = ctx;
        self.len = 0;
        self.stats_len = 0;
    }

    /// Drops every candidate and, unless the arena has held a pool large
    /// enough for the stats fill to fan out over, frees the columns too.
    /// Reuse pays at large pools (no page faults on freshly mapped
    /// columns); a default-size pool is cheaper to allocate again next
    /// round than to hold through model training in between, where it only
    /// adds to the campaign's peak footprint.
    pub fn release_if_small(&mut self) {
        self.len = 0;
        self.stats_len = 0;
        if self.genes[FP].len() < PAR_MIN_ROWS {
            self.genes = Default::default();
            self.stat_u = Default::default();
            self.stat_f = Default::default();
        }
    }

    /// The shared workload context.
    pub fn ctx(&self) -> &Arc<WorkloadCtx> {
        &self.ctx
    }

    /// The workload every candidate schedules.
    pub fn workload(&self) -> &Workload {
        self.ctx.workload()
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the arena holds no candidates.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of buffer-statement slots per candidate.
    pub fn n_stmts(&self) -> usize {
        self.ctx.n_stmts
    }

    /// Entries per candidate in each gene column.
    fn gene_strides(&self) -> [usize; 4] {
        [self.ctx.n_s * 5, self.ctx.n_r * 3, 3, 1]
    }

    /// Entries per candidate in each stats column: one for the columns
    /// this context's statement count uses, none for the rest.
    fn stat_strides(&self) -> ([usize; N_U], [usize; N_F]) {
        let n = self.ctx.n_stmts;
        (
            std::array::from_fn(|c| usize::from(c < STMT_INNERMOST + n)),
            std::array::from_fn(|c| usize::from(c < STMT_N_OPS + 3 * n)),
        )
    }

    fn grow_genes(&mut self, rows: usize) {
        let strides = self.gene_strides();
        for (col, s) in self.genes.iter_mut().zip(strides) {
            grow(col, rows * s);
        }
    }

    fn grow_stats(&mut self, rows: usize) {
        let (su, sf) = self.stat_strides();
        for (col, s) in self.stat_u.iter_mut().zip(su) {
            grow(col, rows * s);
        }
        for (col, s) in self.stat_f.iter_mut().zip(sf) {
            grow(col, rows * s);
        }
    }

    /// Appends one candidate with its fingerprint and stats row, eagerly
    /// (a test fixture; pools go through the generators in
    /// [`crate::evolve`]).
    ///
    /// # Panics
    /// Panics if this arena has a raw (stats-deferred) tail — an eager push
    /// behind it would break the stats prefix.
    #[cfg(test)]
    fn push_genes(&mut self, genes: &GeneBuf) {
        assert!(self.has_stats(), "eager push onto a raw-tail arena");
        self.extend_par(1, 1, |_| *genes);
        self.ensure_stats();
    }

    /// Appends `n` raw candidates in place, candidate `len + k` being
    /// `f(k)`, fanned out over `threads` workers that each write a
    /// disjoint row range of the gene and fingerprint columns. This is the
    /// hot generation path: stats rows are deferred to
    /// [`CandidateArena::ensure_stats`], so a candidate that dedup later
    /// drops never pays for one. `f` must be pure per `k`; the result is
    /// then identical at any thread count.
    pub(crate) fn extend_par<F>(&mut self, n: usize, threads: usize, f: F)
    where
        F: Fn(usize) -> GeneBuf + Sync,
    {
        let start = self.len;
        self.grow_genes(start + n);
        let strides = self.gene_strides();
        let ctx = &*self.ctx;
        fan_out(
            n,
            threads,
            rows_mut(&mut self.genes, strides, start, start + n),
            |views, rows| split_rows(views, strides, rows),
            |first, rows, mut band| {
                for k in 0..rows {
                    write_genes(&mut band, ctx, k, &f(first + k));
                }
            },
        );
        self.len += n;
    }

    /// Whether every candidate has a computed stats row.
    pub fn has_stats(&self) -> bool {
        self.stats_len == self.len
    }

    /// Computes stats rows for every candidate that does not have one yet
    /// (idempotent), on the calling thread. Call after raw generation +
    /// dedup, before handing the arena to PSA or featurization.
    pub fn ensure_stats(&mut self) {
        self.ensure_stats_par(1);
    }

    /// [`CandidateArena::ensure_stats`] fanned out over `threads` workers
    /// writing disjoint row ranges of the stats columns in place. Each row
    /// depends only on its own genes, so the columns are bit-identical at
    /// any thread count.
    pub fn ensure_stats_par(&mut self, threads: usize) {
        let (lo, hi) = (self.stats_len, self.len);
        let n = hi - lo;
        self.grow_stats(hi);
        let (su, sf) = self.stat_strides();
        let (ctx, genes) = (&*self.ctx, &self.genes);
        fan_out(
            n,
            if n < PAR_MIN_ROWS { 1 } else { threads },
            (rows_mut(&mut self.stat_u, su, lo, hi), rows_mut(&mut self.stat_f, sf, lo, hi)),
            |(u, f), rows| {
                let (u_head, u_tail) = split_rows(u, su, rows);
                let (f_head, f_tail) = split_rows(f, sf, rows);
                ((u_head, f_head), (u_tail, f_tail))
            },
            |first, rows, (mut u, mut f)| {
                let mut row = StatsRow::default();
                for k in 0..rows {
                    ctx.compute_row(&read_genes(genes, ctx, lo + first + k), &mut row);
                    write_stats(&mut u, &mut f, k, &row);
                }
            },
        );
        self.stats_len = hi;
    }

    /// Appends every candidate of `other`.
    ///
    /// # Panics
    /// Panics if the arenas were built from different contexts.
    pub fn append(&mut self, other: &CandidateArena) {
        assert!(
            Arc::ptr_eq(&self.ctx, &other.ctx)
                || (self.ctx.gen().key_fnv == other.ctx.gen().key_fnv
                    && self.ctx.kind == other.ctx.kind),
            "cannot append arenas of different workloads"
        );
        let at = self.len;
        self.grow_genes(at + other.len);
        let strides = self.gene_strides();
        copy_rows(&mut self.genes, &other.genes, strides, at, 0, other.len);
        // Copy `other`'s stats prefix only while it keeps this arena's
        // stats prefix unbroken; the rest is deferred to `ensure_stats`.
        if self.stats_len == at {
            let k = other.stats_len;
            self.grow_stats(at + k);
            let (su, sf) = self.stat_strides();
            copy_rows(&mut self.stat_u, &other.stat_u, su, at, 0, k);
            copy_rows(&mut self.stat_f, &other.stat_f, sf, at, 0, k);
            self.stats_len += k;
        }
        self.len += other.len;
    }

    /// Reconstructs candidate `i`'s genes from the columns.
    pub fn genes(&self, i: usize) -> GeneBuf {
        assert!(i < self.len, "candidate index out of range");
        read_genes(&self.genes, &self.ctx, i)
    }

    /// Candidate `i`'s schedule fingerprint.
    pub fn fingerprint(&self, i: usize) -> u64 {
        self.fingerprints()[i]
    }

    /// The full fingerprint column.
    pub fn fingerprints(&self) -> &[u64] {
        &self.genes[FP][..self.len]
    }

    /// Batch filter: evaluates `keep(index, fingerprint)` in ascending
    /// index order (so first-wins dedup sets behave like an in-order loop)
    /// and compacts every column in place.
    pub fn retain_with(&mut self, keep: impl FnMut(usize, u64) -> bool) {
        self.retain_from(0, keep);
    }

    /// [`CandidateArena::retain_with`] over the tail `start..len` only;
    /// candidates before `start` are untouched.
    pub(crate) fn retain_from(&mut self, start: usize, mut keep: impl FnMut(usize, u64) -> bool) {
        let mask: Vec<bool> =
            (start..self.len).map(|i| keep(i, self.genes[FP][i])).collect();
        self.compact_from(start, &mask);
    }

    /// Drops already-`known` fingerprints and every repeat of an earlier
    /// candidate — exactly `retain_with(|_, fp| !known.contains(&fp) &&
    /// seen.insert(fp))` over a fresh `seen`, but with one probe per
    /// candidate: the set is keyed by the fingerprint itself, pre-sized,
    /// and pre-seeded with `known`.
    pub fn dedup_first_wins(&mut self, known: &HashSet<u64>) {
        let mut seen =
            FpSet::with_capacity_and_hasher(self.len + known.len(), Default::default());
        seen.extend(known);
        self.retain_with(|_, fp| seen.insert(fp));
    }

    /// Keeps the candidates of `start..start + mask.len()` whose mask entry
    /// is set, compacting every column in place.
    fn compact_from(&mut self, start: usize, mask: &[bool]) {
        let kept = |m: &[bool]| m.iter().filter(|&&k| k).count();
        let strides = self.gene_strides();
        for (col, s) in self.genes.iter_mut().zip(strides) {
            compact_rows(col, s, start, mask);
        }
        // Stats exist only for the leading `stats_len` candidates; the
        // survivors among them stay a contiguous prefix after compaction.
        if start < self.stats_len {
            let smask = &mask[..self.stats_len - start];
            let (su, sf) = self.stat_strides();
            for (col, s) in self.stat_u.iter_mut().zip(su) {
                compact_rows(col, s, start, smask);
            }
            for (col, s) in self.stat_f.iter_mut().zip(sf) {
                compact_rows(col, s, start, smask);
            }
            self.stats_len = start + kept(smask);
        }
        self.len = start + kept(mask);
    }

    /// Builds a new arena holding `indices` in order (shortlist gather).
    /// Stats rows are copied for the leading run of indices that have one.
    pub fn gather(&self, indices: &[usize]) -> CandidateArena {
        let mut out = CandidateArena::with_capacity(Arc::clone(&self.ctx), indices.len());
        let with_stats = indices.iter().take_while(|&&i| i < self.stats_len).count();
        out.grow_stats(with_stats);
        let (strides, (su, sf)) = (self.gene_strides(), self.stat_strides());
        for (k, &i) in indices.iter().enumerate() {
            assert!(i < self.len, "candidate index out of range");
            copy_rows(&mut out.genes, &self.genes, strides, k, i, 1);
            if k < with_stats {
                copy_rows(&mut out.stat_u, &self.stat_u, su, k, i, 1);
                copy_rows(&mut out.stat_f, &self.stat_f, sf, k, i, 1);
            }
        }
        out.len = indices.len();
        out.stats_len = with_stats;
        out
    }

    /// Candidate `i`'s schedule (allocates — measure boundary only).
    pub fn schedule(&self, i: usize) -> Schedule {
        self.ctx.schedule_from_genes(&self.genes(i))
    }

    /// Materializes candidate `i` into a full [`Program`].
    pub fn program(&self, i: usize) -> Program {
        self.ctx.program_from_genes(&self.genes(i))
    }

    /// Materializes every candidate (tests only).
    pub fn programs(&self) -> Vec<Program> {
        (0..self.len).map(|i| self.program(i)).collect()
    }

    fn u_col(&self, c: usize) -> &[u64] {
        &self.stat_u[c][..self.stats_len]
    }

    fn f_col(&self, c: usize) -> &[f64] {
        &self.stat_f[c][..self.stats_len]
    }

    /// Threads-per-block column.
    pub fn threads_col(&self) -> &[u64] {
        self.u_col(THREADS)
    }

    /// Num-blocks column.
    pub fn num_blocks_col(&self) -> &[u64] {
        self.u_col(NUM_BLOCKS)
    }

    /// Registers-per-thread column.
    pub fn regs_col(&self) -> &[u64] {
        self.u_col(REGS)
    }

    /// Per-thread-FLOPs column.
    pub fn per_thread_flops_col(&self) -> &[f64] {
        self.f_col(PTF)
    }

    /// Per-thread-register-accesses column.
    pub fn per_thread_reg_accesses_col(&self) -> &[f64] {
        self.f_col(PTRA)
    }

    /// Column `base` of statement slot `j` in the f64 block.
    fn stmt_f_col(&self, base: usize, j: usize) -> &[f64] {
        assert!(j < self.ctx.n_stmts, "statement slot out of range");
        self.f_col(base + 3 * j)
    }

    /// Statement slot `j`'s n_ops column.
    pub fn stmt_n_ops_col(&self, j: usize) -> &[f64] {
        self.stmt_f_col(STMT_N_OPS, j)
    }

    /// Statement slot `j`'s global-bytes column.
    pub fn stmt_global_col(&self, j: usize) -> &[f64] {
        self.stmt_f_col(STMT_GLOBAL, j)
    }

    /// Statement slot `j`'s innermost-run column.
    pub fn stmt_innermost_col(&self, j: usize) -> &[u64] {
        assert!(j < self.ctx.n_stmts, "statement slot out of range");
        self.u_col(STMT_INNERMOST + j)
    }

    /// Reads candidate `i`'s stats back into a [`StatsRow`] — the row
    /// [`WorkloadCtx::compute_row`] wrote. Featurization reads candidates
    /// this way, one at a time.
    ///
    /// # Panics
    /// Panics if candidate `i` has no stats row yet.
    pub fn stats_row(&self, i: usize, row: &mut StatsRow) {
        let u = |c: usize| self.u_col(c)[i];
        let f = |c: usize| self.f_col(c)[i];
        row.threads_per_block = u(THREADS);
        row.num_blocks = u(NUM_BLOCKS);
        row.vthreads = u(VTHREADS);
        row.regs_per_thread = u(REGS);
        row.shared_bytes_per_block = u(SHARED_BYTES);
        row.flops_total = f(FLOPS_TOTAL);
        row.global_bytes = f(GLOBAL_BYTES);
        row.shared_traffic_bytes = f(SHARED_TRAFFIC);
        row.padding_waste = f(PADDING_WASTE);
        row.per_thread_flops = f(PTF);
        row.per_thread_reg_accesses = f(PTRA);
        row.unroll = u(UNROLL);
        row.vectorize = u(VECTORIZE);
        row.n_stmts = self.ctx.n_stmts;
        for j in 0..self.ctx.n_stmts {
            row.stmt_n_ops[j] = f(STMT_N_OPS + 3 * j);
            row.stmt_global[j] = f(STMT_GLOBAL + 3 * j);
            row.stmt_shared[j] = f(STMT_SHARED + 3 * j);
            row.stmt_innermost[j] = u(STMT_INNERMOST + j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn zoo() -> Vec<Workload> {
        vec![
            Workload::matmul(1, 512, 512, 512),
            Workload::matmul(12, 128, 128, 64),
            Workload::conv2d(1, 64, 56, 56, 64, 3, 1, 1),
            Workload::dwconv2d(1, 96, 112, 112, 3, 2, 1),
            Workload::conv3d(1, 16, 8, 28, 28, 32, 3, 1, 1),
            Workload::elementwise(EwKind::Gelu, 1 << 18),
            Workload::reduction(2048, 768),
        ]
    }

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn stats_rows_are_bit_identical_to_legacy() {
        let limits = HardwareLimits::default();
        for wl in zoo() {
            let ctx = Arc::new(WorkloadCtx::new(&wl));
            let mut arena = CandidateArena::new(Arc::clone(&ctx));
            let mut r = rng(0xDADA);
            let progs: Vec<Program> =
                (0..40).map(|_| Program::sample(&wl, &limits, &mut r)).collect();
            for p in &progs {
                arena.push_genes(&ctx.genes_from_schedule(&p.schedule));
            }
            for (i, p) in progs.iter().enumerate() {
                let s = p.stats();
                let mut row = StatsRow::default();
                arena.stats_row(i, &mut row);
                assert_eq!(row.threads_per_block, s.threads_per_block);
                assert_eq!(row.num_blocks, s.num_blocks);
                assert_eq!(row.vthreads, s.vthreads);
                assert_eq!(row.regs_per_thread, s.regs_per_thread);
                assert_eq!(row.shared_bytes_per_block, s.shared_bytes_per_block);
                assert_eq!(row.flops_total.to_bits(), s.flops_total.to_bits());
                assert_eq!(row.global_bytes.to_bits(), s.global_bytes.to_bits());
                assert_eq!(
                    row.shared_traffic_bytes.to_bits(),
                    s.shared_traffic_bytes.to_bits()
                );
                assert_eq!(row.padding_waste.to_bits(), s.padding_waste.to_bits());
                assert_eq!(row.per_thread_flops.to_bits(), s.per_thread_flops.to_bits());
                assert_eq!(
                    row.per_thread_reg_accesses.to_bits(),
                    s.per_thread_reg_accesses.to_bits()
                );
                assert_eq!(row.unroll, s.unroll);
                assert_eq!(row.vectorize, s.vectorize);
                assert_eq!(row.n_stmts, s.stmts.len(), "stmt count for {wl}");
                for (j, st) in s.stmts.iter().enumerate() {
                    assert_eq!(ctx.stmt_kind(j), st.kind, "stmt {j} kind for {wl}");
                    assert_eq!(ctx.stmt_dst(j), st.dst_level, "stmt {j} dst for {wl}");
                    assert_eq!(row.stmt_n_ops[j].to_bits(), st.n_ops.to_bits());
                    assert_eq!(row.stmt_global[j].to_bits(), st.global_bytes.to_bits());
                    assert_eq!(row.stmt_shared[j].to_bits(), st.shared_bytes.to_bits());
                    assert_eq!(row.stmt_innermost[j], st.innermost_len);
                }
            }
        }
    }

    #[test]
    fn fingerprints_match_program_fingerprint() {
        let limits = HardwareLimits::default();
        for wl in zoo() {
            let ctx = Arc::new(WorkloadCtx::new(&wl));
            let mut arena = CandidateArena::new(Arc::clone(&ctx));
            let mut r = rng(0xFADE);
            for _ in 0..50 {
                let p = Program::sample(&wl, &limits, &mut r);
                arena.push_genes(&ctx.genes_from_schedule(&p.schedule));
                assert_eq!(arena.fingerprint(arena.len() - 1), p.fingerprint(), "{wl}");
            }
        }
    }

    #[test]
    fn fallback_genes_match_program_fallback() {
        for wl in zoo() {
            let ctx = WorkloadCtx::new(&wl);
            assert_eq!(
                ctx.schedule_from_genes(&ctx.gen().fallback),
                Program::fallback(&wl).schedule,
                "{wl}"
            );
        }
    }

    #[test]
    fn materialization_roundtrips() {
        let limits = HardwareLimits::default();
        for wl in zoo() {
            let ctx = Arc::new(WorkloadCtx::new(&wl));
            let mut arena = CandidateArena::new(Arc::clone(&ctx));
            let mut r = rng(3);
            let progs: Vec<Program> =
                (0..20).map(|_| Program::sample(&wl, &limits, &mut r)).collect();
            for p in &progs {
                arena.push_genes(&ctx.genes_from_schedule(&p.schedule));
            }
            assert_eq!(arena.programs(), progs);
        }
    }

    #[test]
    fn retain_and_append_preserve_order() {
        let wl = Workload::matmul(1, 512, 512, 512);
        let limits = HardwareLimits::default();
        let ctx = Arc::new(WorkloadCtx::new(&wl));
        let mut a = CandidateArena::new(Arc::clone(&ctx));
        let mut b = CandidateArena::new(Arc::clone(&ctx));
        let mut r = rng(44);
        let progs: Vec<Program> =
            (0..30).map(|_| Program::sample(&wl, &limits, &mut r)).collect();
        for p in &progs[..20] {
            a.push_genes(&ctx.genes_from_schedule(&p.schedule));
        }
        for p in &progs[20..] {
            b.push_genes(&ctx.genes_from_schedule(&p.schedule));
        }
        a.append(&b);
        assert_eq!(a.len(), 30);
        assert_eq!(a.programs(), progs);

        // First-wins dedup through retain_with matches a HashSet loop.
        let mut seen = std::collections::HashSet::new();
        let expected: Vec<Program> =
            progs.iter().filter(|p| seen.insert(p.fingerprint())).cloned().collect();
        let mut seen2 = std::collections::HashSet::new();
        a.retain_with(|_, fp| seen2.insert(fp));
        assert_eq!(a.programs(), expected);

        // Keep-every-third exercises strided compaction.
        let before = a.programs();
        a.retain_with(|i, _| i % 3 == 0);
        let expected: Vec<Program> =
            before.iter().step_by(3).cloned().collect();
        assert_eq!(a.programs(), expected);

        // Stats columns stay aligned with genes after compaction.
        for i in 0..a.len() {
            let s = a.program(i).stats();
            let mut row = StatsRow::default();
            a.stats_row(i, &mut row);
            assert_eq!(row.flops_total.to_bits(), s.flops_total.to_bits());
            assert_eq!(row.threads_per_block, s.threads_per_block);
        }
    }

    #[test]
    fn gather_builds_shortlist_in_index_order() {
        let wl = Workload::reduction(2048, 768);
        let limits = HardwareLimits::default();
        let ctx = Arc::new(WorkloadCtx::new(&wl));
        let mut a = CandidateArena::new(Arc::clone(&ctx));
        let mut r = rng(9);
        let progs: Vec<Program> =
            (0..16).map(|_| Program::sample(&wl, &limits, &mut r)).collect();
        for p in &progs {
            a.push_genes(&ctx.genes_from_schedule(&p.schedule));
        }
        let idx = [5usize, 0, 11, 11, 2];
        let short = a.gather(&idx);
        assert_eq!(short.len(), 5);
        for (k, &i) in idx.iter().enumerate() {
            assert_eq!(short.program(k), progs[i]);
            assert_eq!(short.fingerprint(k), progs[i].fingerprint());
        }
    }

    #[test]
    fn try_genes_says_why_a_schedule_is_malformed() {
        let wl = Workload::matmul(1, 64, 64, 64);
        let ctx = WorkloadCtx::new(&wl);
        let tile = |spatial: Vec<[u64; 5]>, reduce: Vec<[u64; 3]>| {
            Schedule::MultiTile(TileConfig { spatial, reduce, unroll: 0, vectorize: 1 })
        };
        assert!(ctx.try_genes(&tile(vec![[4, 1, 16, 1, 1]; 2], vec![[4, 4, 4]])).is_ok());
        let simple = Schedule::Simple(SimpleConfig { threads: 64, serial: 1, vectorize: 1 });
        for (schedule, why) in [
            (simple, "cannot schedule"),
            (tile(vec![[4, 1, 16, 1, 1]], vec![[4, 4, 4]]), "spatial split rank mismatch"),
            (tile(vec![[4, 1, 16, 1, 1]; 2], vec![]), "reduce split rank mismatch"),
            (tile(vec![[0, 1, 16, 1, 1], [4, 1, 16, 1, 1]], vec![[4, 4, 4]]), "factor is 0"),
            (tile(vec![[1; 5]; 2], vec![[4, 4, 4]]), "padded extent below"),
            (tile(vec![[1 << 40, 1, 16, 1, 1]; 2], vec![[4, 4, 4]]), "overflow"),
        ] {
            let err = ctx.try_genes(&schedule).expect_err(why);
            assert!(err.contains(why), "{err}");
            // A program's own entry points read the schedule's sketch kind
            // and refuse the rest.
            let prog = Program::new(wl.clone(), schedule);
            let stats = std::panic::catch_unwind(|| prog.stats());
            assert_eq!(stats.is_ok(), why == "cannot schedule", "{why}");
        }
    }

    #[test]
    fn divisor_table_matches_divisors_fn() {
        let ctx = WorkloadCtx::new(&Workload::matmul(1, 512, 512, 512));
        for n in [1u64, 2, 7, 16, 512, 513, 516, 520, 528] {
            match ctx.gen().divtab.entry(n) {
                Some(divs) => assert_eq!(divs, divisors(n).as_slice(), "n={n}"),
                None => {
                    // Only values unreachable from the padding bases may be
                    // absent.
                    assert!(
                        !512u64.is_multiple_of(n),
                        "reachable value {n} missing from table"
                    );
                }
            }
        }
    }
}
