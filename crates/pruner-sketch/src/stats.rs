//! Derived statistics of a scheduled program.
//!
//! [`ProgramStats`] is the common currency of the per-program stack: the
//! GPU simulator prices it, PSA's scalar estimate penalizes it, and the
//! renderer prints it. It is assembled by [`crate::Program::stats`] from the
//! schedule's [`StatsRow`] and [`FlowRow`] — the rows the candidate arena
//! derives for every candidate — so a program and an arena row of the same
//! schedule have one derivation.

use crate::arena::{FlowRow, GeneBuf, StatsRow, WorkloadCtx};
use serde::{Deserialize, Serialize};

/// Bytes per element; the whole stack models fp32 tensors.
pub(crate) const ELEM_BYTES: u64 = 4;

/// Memory hierarchy level a statement or data-flow step touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemLevel {
    /// Off-chip DRAM.
    Global,
    /// On-chip scratchpad shared by a block.
    Shared,
    /// Per-thread register file.
    Register,
}

/// Role of an innermost buffer statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StmtKind {
    /// Cooperative global→shared staging load.
    GlobalToShared,
    /// Shared→register operand load.
    SharedToRegister,
    /// The arithmetic statement.
    Compute,
    /// Register→global result writeback.
    WriteBack,
    /// Direct global load (schedules without shared staging).
    GlobalLoad,
}

/// One innermost buffer statement — the unit PSA prices (Algorithm 1's
/// `item.bufferStmts`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BufferStmt {
    /// Statement role.
    pub kind: StmtKind,
    /// Total floating-point (and addressing) operations executed by this
    /// statement across the whole kernel.
    pub n_ops: f64,
    /// Total bytes this statement moves to/from *global* memory.
    pub global_bytes: f64,
    /// Total bytes this statement moves to/from *shared* memory.
    pub shared_bytes: f64,
    /// Contiguous elements along the innermost accessed dimension (`n_l`).
    pub innermost_len: u64,
    /// Memory level the destination of the statement lives in.
    pub dst_level: MemLevel,
    /// Size in bytes of the underlying global tensor this statement touches
    /// (0 for statements that never reach global memory). Traffic above
    /// this footprint is re-read and may hit the L2 cache.
    pub tensor_bytes: f64,
}

/// One step of the multi-tiling data-movement pattern, in temporal order —
/// the raw material of PaCM's 23-dimensional data-flow features.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DataFlowStep {
    /// Source memory level.
    pub src: MemLevel,
    /// Destination memory level.
    pub dst: MemLevel,
    /// Total bytes moved across the kernel.
    pub bytes: f64,
    /// Bytes allocated at the destination (per block for shared, per thread
    /// for registers, whole tensor for global).
    pub alloc_bytes: f64,
    /// Number of staging iterations (temporal repetitions).
    pub steps: f64,
    /// Contiguous elements per access run.
    pub contig: u64,
    /// Threads cooperating in the step.
    pub threads: u64,
    /// Data reuse factor: bytes consumed downstream / bytes moved.
    pub reuse: f64,
    /// Vector width of the accesses.
    pub vec: u64,
    /// Arithmetic operations attributed to the step (compute steps only).
    pub ops: f64,
}

/// Everything the hardware model and the analyzers need to know about a
/// scheduled program.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProgramStats {
    /// Threads per block (`n_t`).
    pub threads_per_block: u64,
    /// Number of thread blocks (`B`).
    pub num_blocks: u64,
    /// Virtual threads per block.
    pub vthreads: u64,
    /// Estimated registers per thread (`n_r`), uncapped.
    pub regs_per_thread: u64,
    /// Shared memory per block, in bytes.
    pub shared_bytes_per_block: u64,
    /// Total floating-point work including padding waste.
    pub flops_total: f64,
    /// Total global-memory traffic in bytes (loads + stores, post-tiling).
    pub global_bytes: f64,
    /// Total shared-memory traffic in bytes.
    pub shared_traffic_bytes: f64,
    /// Multiplier ≥ 1 of wasted work due to extent padding.
    pub padding_waste: f64,
    /// Per-thread arithmetic workload (`n_com`).
    pub per_thread_flops: f64,
    /// Per-thread register accesses (`n_reg`).
    pub per_thread_reg_accesses: f64,
    /// Unroll annotation.
    pub unroll: u64,
    /// Vectorization annotation.
    pub vectorize: u64,
    /// The innermost buffer statements, in program order.
    pub stmts: Vec<BufferStmt>,
    /// The temporal data-flow pattern (empty for workloads without
    /// multi-tiling, per the paper).
    pub dataflow: Vec<DataFlowStep>,
}

impl ProgramStats {
    /// Assembles the statistics of `genes` under `ctx` from their stats and
    /// data-flow rows, with each statement slot's kind, destination and
    /// global tensor size from the context.
    pub(crate) fn from_genes(ctx: &WorkloadCtx, genes: &GeneBuf) -> ProgramStats {
        let mut row = StatsRow::default();
        ctx.compute_row(genes, &mut row);
        let mut flow = FlowRow::default();
        ctx.flow_row(genes, &mut flow);
        let stmts = (0..row.n_stmts)
            .map(|j| BufferStmt {
                kind: ctx.stmt_kind(j),
                n_ops: row.stmt_n_ops[j],
                global_bytes: row.stmt_global[j],
                shared_bytes: row.stmt_shared[j],
                innermost_len: row.stmt_innermost[j],
                dst_level: ctx.stmt_dst(j),
                tensor_bytes: ctx.stmt_tensor_bytes(j, &row),
            })
            .collect();
        let dataflow = (0..flow.n)
            .map(|j| DataFlowStep {
                src: flow.src[j],
                dst: flow.dst[j],
                bytes: flow.bytes[j],
                alloc_bytes: flow.alloc_bytes[j],
                steps: flow.steps[j],
                contig: flow.contig[j],
                threads: flow.threads[j],
                reuse: flow.reuse[j],
                vec: flow.vec[j],
                ops: flow.ops[j],
            })
            .collect();
        ProgramStats {
            threads_per_block: row.threads_per_block,
            num_blocks: row.num_blocks,
            vthreads: row.vthreads,
            regs_per_thread: row.regs_per_thread,
            shared_bytes_per_block: row.shared_bytes_per_block,
            flops_total: row.flops_total,
            global_bytes: row.global_bytes,
            shared_traffic_bytes: row.shared_traffic_bytes,
            padding_waste: row.padding_waste,
            per_thread_flops: row.per_thread_flops,
            per_thread_reg_accesses: row.per_thread_reg_accesses,
            unroll: row.unroll,
            vectorize: row.vectorize,
            stmts,
            dataflow,
        }
    }

    /// Total warps per block, rounded up to whole warps.
    pub fn warps_per_block(&self, warp_size: u64) -> u64 {
        self.threads_per_block.div_ceil(warp_size)
    }

    /// Total warps across the kernel.
    pub fn total_warps(&self, warp_size: u64) -> u64 {
        self.num_blocks * self.warps_per_block(warp_size)
    }

    /// Arithmetic intensity in FLOPs per global byte.
    pub fn arithmetic_intensity(&self) -> f64 {
        if self.global_bytes > 0.0 {
            self.flops_total / self.global_bytes
        } else {
            f64::INFINITY
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ReduceConfig, Schedule, SimpleConfig, TileConfig};
    use crate::Program;
    use pruner_ir::{EwKind, Workload};

    fn stats_of(wl: &Workload, schedule: Schedule) -> ProgramStats {
        Program::new(wl.clone(), schedule).stats()
    }

    fn matmul_512() -> Workload {
        Workload::matmul(1, 512, 512, 512)
    }

    fn balanced_tile() -> TileConfig {
        TileConfig {
            // 512 = 8*2*8*2*2 for both spatial axes, 512 = 8*8*8 reduce.
            spatial: vec![[8, 2, 8, 2, 2], [8, 1, 16, 2, 2]],
            reduce: vec![[8, 8, 8]],
            unroll: 64,
            vectorize: 4,
        }
    }

    #[test]
    fn multitile_basic_counts() {
        let s = stats_of(&matmul_512(), Schedule::MultiTile(balanced_tile()));
        assert_eq!(s.num_blocks, 64);
        assert_eq!(s.threads_per_block, 128);
        assert_eq!(s.vthreads, 2);
        assert!((s.padding_waste - 1.0).abs() < 1e-12, "exact splits have no waste");
        assert_eq!(s.flops_total, matmul_512().flops());
    }

    #[test]
    fn multitile_shared_footprint() {
        let s = stats_of(&matmul_512(), Schedule::MultiTile(balanced_tile()));
        // Block tile 64x64, chunk 64: A = 64*64, B = 64*64 floats.
        assert_eq!(s.shared_bytes_per_block, (64 * 64 + 64 * 64) * 4);
    }

    #[test]
    fn multitile_global_traffic_reflects_reuse() {
        // A bigger block tile means fewer blocks re-reading the operands.
        let small = TileConfig {
            spatial: vec![[32, 1, 8, 1, 2], [32, 1, 8, 1, 2]],
            reduce: vec![[8, 8, 8]],
            unroll: 0,
            vectorize: 1,
        };
        let big = TileConfig {
            spatial: vec![[8, 2, 8, 2, 2], [8, 2, 8, 2, 2]],
            reduce: vec![[8, 8, 8]],
            unroll: 0,
            vectorize: 1,
        };
        let wl = matmul_512();
        let s_small = stats_of(&wl, Schedule::MultiTile(small));
        let s_big = stats_of(&wl, Schedule::MultiTile(big));
        assert!(
            s_big.global_bytes < s_small.global_bytes,
            "64x64 block tiles must beat 16x16 on traffic: {} vs {}",
            s_big.global_bytes,
            s_small.global_bytes
        );
    }

    #[test]
    fn multitile_stmt_structure() {
        let s = stats_of(&matmul_512(), Schedule::MultiTile(balanced_tile()));
        // 2 operands: 2 G2S + 2 S2R + compute + writeback.
        assert_eq!(s.stmts.len(), 6);
        assert_eq!(s.dataflow.len(), 6);
        let compute_ops: f64 = s
            .stmts
            .iter()
            .filter(|st| st.kind == StmtKind::Compute)
            .map(|st| st.n_ops)
            .sum();
        assert_eq!(compute_ops, s.flops_total);
        let g2s_bytes: f64 = s
            .stmts
            .iter()
            .filter(|st| st.kind == StmtKind::GlobalToShared)
            .map(|st| st.global_bytes)
            .sum();
        let wb: f64 = s
            .stmts
            .iter()
            .filter(|st| st.kind == StmtKind::WriteBack)
            .map(|st| st.global_bytes)
            .sum();
        assert!((g2s_bytes + wb - s.global_bytes).abs() < 1e-6);
    }

    #[test]
    fn padding_waste_counted() {
        // Extent 7 forced into a 2*1*2*2*1 split = padded 8.
        let wl = Workload::matmul(1, 7, 8, 8);
        let t = TileConfig {
            spatial: vec![[2, 1, 2, 2, 1], [2, 1, 2, 2, 1]],
            reduce: vec![[2, 2, 2]],
            unroll: 0,
            vectorize: 1,
        };
        let s = stats_of(&wl, Schedule::MultiTile(t));
        assert!((s.padding_waste - 8.0 / 7.0).abs() < 1e-12);
        assert!(s.flops_total > wl.flops());
    }

    #[test]
    fn simple_elementwise_stats() {
        let wl = Workload::elementwise(EwKind::Relu, 1 << 20);
        let c = SimpleConfig { threads: 256, serial: 4, vectorize: 4 };
        let s = stats_of(&wl, Schedule::Simple(c));
        assert_eq!(s.num_blocks, (1 << 20) / (256 * 16));
        assert_eq!(s.shared_bytes_per_block, 0);
        assert!(s.dataflow.is_empty(), "no multi-tiling pattern for elementwise");
        // Traffic = read + write of the tensor.
        assert!((s.global_bytes - 2.0 * (1u64 << 20) as f64 * 4.0).abs() < 1e-6);
    }

    #[test]
    fn rowreduce_stats() {
        let wl = Workload::reduction(1024, 768);
        let c = ReduceConfig { rows_per_block: 2, reduce_threads: 128, serial: 2 };
        let s = stats_of(&wl, Schedule::RowReduce(c));
        assert_eq!(s.threads_per_block, 256);
        assert_eq!(s.num_blocks, 512);
        assert!(s.global_bytes > (1024 * 768 * 4) as f64);
        assert!(s.dataflow.is_empty());
    }

    #[test]
    fn warps_round_up() {
        let wl = Workload::elementwise(EwKind::Relu, 4096);
        let c = SimpleConfig { threads: 40, serial: 1, vectorize: 1 };
        let s = stats_of(&wl, Schedule::Simple(c));
        assert_eq!(s.warps_per_block(32), 2);
    }

    #[test]
    fn arithmetic_intensity_sane_for_matmul() {
        let s = stats_of(&matmul_512(), Schedule::MultiTile(balanced_tile()));
        let ai = s.arithmetic_intensity();
        // 512^3 matmul with 64x64 tiles: far above 1 flop/byte.
        assert!(ai > 5.0, "got {ai}");
    }
}
