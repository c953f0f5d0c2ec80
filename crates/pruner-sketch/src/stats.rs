//! Derived statistics of a scheduled program.
//!
//! [`ProgramStats`] is the common currency of the whole stack: the GPU
//! simulator prices it, PSA penalizes it, and both feature extractors embed
//! it. It is computed once per program from the workload and the schedule.

use crate::config::{Schedule, SimpleConfig, TileConfig};
use pruner_ir::Workload;
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
    /// Computes the statistics of `workload` under `schedule`.
    ///
    /// # Panics
    /// Panics if the schedule's axis counts do not match the workload
    /// (e.g. a `MultiTile` config with the wrong number of spatial splits).
    pub fn compute(workload: &Workload, schedule: &Schedule) -> ProgramStats {
        match schedule {
            Schedule::MultiTile(t) => Self::compute_multitile(workload, t),
            Schedule::Simple(c) => Self::compute_simple(workload, c),
            Schedule::RowReduce(c) => Self::compute_rowreduce(workload, c),
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

    fn compute_multitile(workload: &Workload, t: &TileConfig) -> ProgramStats {
        let spatial_extents = workload.spatial_extents();
        let reduce_extents = workload.reduce_extents();
        assert_eq!(t.spatial.len(), spatial_extents.len(), "spatial split rank mismatch");
        assert_eq!(t.reduce.len(), reduce_extents.len(), "reduce split rank mismatch");

        let padded_s = t.padded_spatial();
        let padded_r = t.padded_reduce();
        for (p, e) in padded_s.iter().zip(&spatial_extents) {
            assert!(p >= e, "padded spatial extent below true extent");
        }
        for (p, e) in padded_r.iter().zip(&reduce_extents) {
            assert!(p >= e, "padded reduce extent below true extent");
        }
        let true_iters: f64 = spatial_extents.iter().chain(&reduce_extents).product::<u64>() as f64;
        let padded_iters: f64 = padded_s.iter().chain(&padded_r).product::<u64>() as f64;
        let padding_waste = padded_iters / true_iters;

        let num_blocks = t.num_blocks();
        let threads = t.threads_per_block();
        let vthreads = t.vthreads();
        let block_tile = t.block_tile();
        let thread_tile = t.thread_tile();
        let reduce_chunk = t.reduce_chunk();
        let reduce_inner = t.reduce_inner();
        let outer_steps = t.reduce_outer_steps();

        let flops_total = workload.flops() * padding_waste;

        // Shared memory: one staging buffer per operand sized for a block
        // tile × reduction chunk.
        let operand_block_fp = workload.operand_tile_elems(&block_tile, &reduce_chunk);
        let shared_bytes_per_block: u64 = operand_block_fp.iter().sum::<u64>() * ELEM_BYTES;

        // Registers: accumulators for the per-thread output tile plus the
        // operand fragments of one innermost reduction step, plus fixed
        // overhead for indices and addresses.
        let operand_thread_fp = workload.operand_tile_elems(&thread_tile, &reduce_inner);
        let regs_per_thread =
            t.elems_per_thread() + operand_thread_fp.iter().sum::<u64>() + 16;

        // Global traffic: every outer reduction step restages each operand's
        // block tile; the result is written once.
        let per_step_load_bytes: f64 =
            operand_block_fp.iter().map(|&e| (e * ELEM_BYTES) as f64).sum();
        let load_bytes = num_blocks as f64 * outer_steps as f64 * per_step_load_bytes;
        let store_bytes = padded_s.iter().product::<u64>() as f64 * ELEM_BYTES as f64;
        let global_bytes = load_bytes + store_bytes;

        // Shared→register traffic: each (outer × mid) reduction iteration
        // pulls the per-thread operand fragments from shared memory.
        let mid_steps: u64 = t.reduce.iter().map(|r| r[0] * r[1]).product();
        let per_iter_frag_bytes: f64 =
            operand_thread_fp.iter().map(|&e| (e * ELEM_BYTES) as f64).sum();
        let shared_traffic_bytes =
            num_blocks as f64 * threads as f64 * mid_steps as f64 * per_iter_frag_bytes
                * vthreads as f64;

        let per_thread_flops = flops_total / (num_blocks as f64 * threads as f64);
        // One FMA (2 flops) touches ~3 register operands.
        let per_thread_reg_accesses = per_thread_flops * 1.5;

        let contig_global = workload.innermost_contig(&block_tile, &reduce_chunk);
        let contig_thread = workload.innermost_contig(&thread_tile, &reduce_inner);
        let n_ops_addressing_per_byte = 0.02; // index arithmetic per staged byte

        let mut stmts = Vec::new();
        let mut dataflow = Vec::new();
        let operand_total: Vec<u64> = workload.operand_elems();
        let num_operands = workload.num_operands();
        for op in 0..num_operands {
            let bytes = num_blocks as f64
                * outer_steps as f64
                * (operand_block_fp[op] * ELEM_BYTES) as f64;
            stmts.push(BufferStmt {
                kind: StmtKind::GlobalToShared,
                n_ops: bytes * n_ops_addressing_per_byte,
                global_bytes: bytes,
                shared_bytes: bytes,
                innermost_len: contig_global[op],
                dst_level: MemLevel::Shared,
                tensor_bytes: (operand_total[op] * ELEM_BYTES) as f64,
            });
            dataflow.push(DataFlowStep {
                src: MemLevel::Global,
                dst: MemLevel::Shared,
                bytes,
                alloc_bytes: (operand_block_fp[op] * ELEM_BYTES) as f64,
                steps: outer_steps as f64,
                contig: contig_global[op],
                threads,
                reuse: bytes / ((operand_total[op] * ELEM_BYTES) as f64),
                vec: t.vectorize,
                ops: 0.0,
            });
        }
        for op in 0..num_operands {
            let bytes = shared_traffic_bytes * (operand_thread_fp[op] as f64)
                / (operand_thread_fp.iter().sum::<u64>().max(1) as f64);
            stmts.push(BufferStmt {
                kind: StmtKind::SharedToRegister,
                n_ops: bytes * n_ops_addressing_per_byte,
                global_bytes: 0.0,
                shared_bytes: bytes,
                innermost_len: contig_thread[op],
                dst_level: MemLevel::Register,
                tensor_bytes: 0.0,
            });
            dataflow.push(DataFlowStep {
                src: MemLevel::Shared,
                dst: MemLevel::Register,
                bytes,
                alloc_bytes: (operand_thread_fp[op] * ELEM_BYTES) as f64,
                steps: (mid_steps * outer_steps) as f64,
                contig: contig_thread[op],
                threads,
                reuse: if operand_block_fp[op] > 0 {
                    bytes / ((operand_block_fp[op] * ELEM_BYTES) as f64 * num_blocks as f64)
                } else {
                    0.0
                },
                vec: 1,
                ops: 0.0,
            });
        }
        let out_contig_global = *contig_global.last().expect("output contig present");
        let out_contig_thread = *contig_thread.last().expect("output contig present");
        stmts.push(BufferStmt {
            kind: StmtKind::Compute,
            n_ops: flops_total,
            global_bytes: 0.0,
            shared_bytes: 0.0,
            innermost_len: out_contig_thread,
            dst_level: MemLevel::Register,
            tensor_bytes: 0.0,
        });
        dataflow.push(DataFlowStep {
            src: MemLevel::Register,
            dst: MemLevel::Register,
            bytes: 0.0,
            alloc_bytes: (t.elems_per_thread() * ELEM_BYTES) as f64,
            steps: padded_r.iter().product::<u64>() as f64,
            contig: out_contig_thread,
            threads,
            reuse: 1.0,
            vec: 1,
            ops: flops_total,
        });
        stmts.push(BufferStmt {
            kind: StmtKind::WriteBack,
            n_ops: store_bytes * n_ops_addressing_per_byte,
            global_bytes: store_bytes,
            shared_bytes: 0.0,
            innermost_len: out_contig_global.max(
                t.spatial.last().map(|s| s[2] * s[3] * s[4]).unwrap_or(1),
            ),
            dst_level: MemLevel::Global,
            tensor_bytes: store_bytes,
        });
        dataflow.push(DataFlowStep {
            src: MemLevel::Register,
            dst: MemLevel::Global,
            bytes: store_bytes,
            alloc_bytes: store_bytes,
            steps: 1.0,
            contig: out_contig_global,
            threads,
            reuse: 1.0,
            vec: 1,
            ops: 0.0,
        });

        ProgramStats {
            threads_per_block: threads,
            num_blocks,
            vthreads,
            regs_per_thread,
            shared_bytes_per_block,
            flops_total,
            global_bytes,
            shared_traffic_bytes,
            padding_waste,
            per_thread_flops,
            per_thread_reg_accesses,
            unroll: t.unroll,
            vectorize: t.vectorize,
            stmts,
            dataflow,
        }
    }

    fn compute_simple(workload: &Workload, c: &SimpleConfig) -> ProgramStats {
        let len = workload.output_elems();
        let num_blocks = c.num_blocks(len);
        let threads = c.threads;
        let covered = num_blocks * threads * c.serial * c.vectorize;
        let padding_waste = covered as f64 / len as f64;
        let flops_total = workload.flops() * padding_waste.min(2.0);

        let operand_elems = workload.operand_elems();
        let load_bytes: f64 =
            operand_elems.iter().map(|&e| (e * ELEM_BYTES) as f64).sum();
        let store_bytes = (len * ELEM_BYTES) as f64;
        let global_bytes = load_bytes + store_bytes;
        let contig = (threads * c.vectorize).min(len);

        let mut stmts = Vec::new();
        for &e in &operand_elems {
            stmts.push(BufferStmt {
                kind: StmtKind::GlobalLoad,
                n_ops: 0.0,
                global_bytes: (e * ELEM_BYTES) as f64,
                shared_bytes: 0.0,
                innermost_len: contig,
                dst_level: MemLevel::Register,
                tensor_bytes: (e * ELEM_BYTES) as f64,
            });
        }
        stmts.push(BufferStmt {
            kind: StmtKind::Compute,
            n_ops: flops_total,
            global_bytes: 0.0,
            shared_bytes: 0.0,
            innermost_len: c.vectorize,
            dst_level: MemLevel::Register,
            tensor_bytes: 0.0,
        });
        stmts.push(BufferStmt {
            kind: StmtKind::WriteBack,
            n_ops: 0.0,
            global_bytes: store_bytes,
            shared_bytes: 0.0,
            innermost_len: contig,
            dst_level: MemLevel::Global,
            tensor_bytes: store_bytes,
        });

        let per_thread_flops = flops_total / (num_blocks as f64 * threads as f64);
        ProgramStats {
            threads_per_block: threads,
            num_blocks,
            vthreads: 1,
            regs_per_thread: 8 + c.serial * c.vectorize,
            shared_bytes_per_block: 0,
            flops_total,
            global_bytes,
            shared_traffic_bytes: 0.0,
            padding_waste,
            per_thread_flops,
            per_thread_reg_accesses: per_thread_flops * 2.0,
            unroll: 0,
            vectorize: c.vectorize,
            stmts,
            // Element-wise programs have no multi-tiling pattern; the paper
            // uses all-zero data-flow features for them.
            dataflow: Vec::new(),
        }
    }

    fn compute_rowreduce(workload: &Workload, c: &crate::config::ReduceConfig) -> ProgramStats {
        let (rows, r) = match *workload {
            Workload::Reduction { outer, reduce } => (outer, reduce),
            _ => {
                // A row-reduce schedule over a non-reduction workload treats
                // the flattened output as rows of the full reduction extent.
                (workload.output_elems(), workload.reduce_extents().iter().product::<u64>().max(1))
            }
        };
        let num_blocks = c.num_blocks(rows);
        let threads = c.threads_per_block();
        let chunk = c.reduce_threads * c.serial;
        let steps = r.div_ceil(chunk).max(1);
        let padded = steps * chunk;
        let padding_waste = (padded as f64 / r as f64).max(1.0)
            * (num_blocks * c.rows_per_block) as f64
            / rows as f64;
        let flops_total = workload.flops() * padding_waste;

        let load_bytes = (rows * r * ELEM_BYTES) as f64;
        let store_bytes = (rows * ELEM_BYTES) as f64;
        let global_bytes = load_bytes + store_bytes;

        let stmts = vec![
            BufferStmt {
                kind: StmtKind::GlobalLoad,
                n_ops: 0.0,
                global_bytes: load_bytes,
                shared_bytes: 0.0,
                innermost_len: (c.serial * c.reduce_threads).min(r),
                dst_level: MemLevel::Register,
                tensor_bytes: load_bytes,
            },
            BufferStmt {
                kind: StmtKind::Compute,
                n_ops: flops_total,
                global_bytes: 0.0,
                shared_bytes: (num_blocks * threads * ELEM_BYTES) as f64
                    * (c.reduce_threads as f64).log2().max(1.0),
                innermost_len: c.serial,
                dst_level: MemLevel::Register,
                tensor_bytes: 0.0,
            },
            BufferStmt {
                kind: StmtKind::WriteBack,
                n_ops: 0.0,
                global_bytes: store_bytes,
                shared_bytes: 0.0,
                innermost_len: c.rows_per_block.min(rows),
                dst_level: MemLevel::Global,
                tensor_bytes: store_bytes,
            },
        ];

        let per_thread_flops = flops_total / (num_blocks as f64 * threads as f64);
        ProgramStats {
            threads_per_block: threads,
            num_blocks,
            vthreads: 1,
            regs_per_thread: 8 + c.serial,
            shared_bytes_per_block: threads * ELEM_BYTES,
            flops_total,
            global_bytes,
            shared_traffic_bytes: (num_blocks * threads * ELEM_BYTES) as f64 * 2.0,
            padding_waste,
            per_thread_flops,
            per_thread_reg_accesses: per_thread_flops * 2.0,
            unroll: 0,
            vectorize: 1,
            stmts,
            dataflow: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ReduceConfig, SimpleConfig, TileConfig};
    use pruner_ir::EwKind;

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
        let s = ProgramStats::compute(&matmul_512(), &Schedule::MultiTile(balanced_tile()));
        assert_eq!(s.num_blocks, 64);
        assert_eq!(s.threads_per_block, 128);
        assert_eq!(s.vthreads, 2);
        assert!((s.padding_waste - 1.0).abs() < 1e-12, "exact splits have no waste");
        assert_eq!(s.flops_total, matmul_512().flops());
    }

    #[test]
    fn multitile_shared_footprint() {
        let s = ProgramStats::compute(&matmul_512(), &Schedule::MultiTile(balanced_tile()));
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
        let s_small = ProgramStats::compute(&wl, &Schedule::MultiTile(small));
        let s_big = ProgramStats::compute(&wl, &Schedule::MultiTile(big));
        assert!(
            s_big.global_bytes < s_small.global_bytes,
            "64x64 block tiles must beat 16x16 on traffic: {} vs {}",
            s_big.global_bytes,
            s_small.global_bytes
        );
    }

    #[test]
    fn multitile_stmt_structure() {
        let s = ProgramStats::compute(&matmul_512(), &Schedule::MultiTile(balanced_tile()));
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
        let s = ProgramStats::compute(&wl, &Schedule::MultiTile(t));
        assert!((s.padding_waste - 8.0 / 7.0).abs() < 1e-12);
        assert!(s.flops_total > wl.flops());
    }

    #[test]
    fn simple_elementwise_stats() {
        let wl = Workload::elementwise(EwKind::Relu, 1 << 20);
        let c = SimpleConfig { threads: 256, serial: 4, vectorize: 4 };
        let s = ProgramStats::compute(&wl, &Schedule::Simple(c));
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
        let s = ProgramStats::compute(&wl, &Schedule::RowReduce(c));
        assert_eq!(s.threads_per_block, 256);
        assert_eq!(s.num_blocks, 512);
        assert!(s.global_bytes > (1024 * 768 * 4) as f64);
        assert!(s.dataflow.is_empty());
    }

    #[test]
    fn warps_round_up() {
        let wl = Workload::elementwise(EwKind::Relu, 4096);
        let c = SimpleConfig { threads: 40, serial: 1, vectorize: 1 };
        let s = ProgramStats::compute(&wl, &Schedule::Simple(c));
        assert_eq!(s.warps_per_block(32), 2);
    }

    #[test]
    fn arithmetic_intensity_sane_for_matmul() {
        let s = ProgramStats::compute(&matmul_512(), &Schedule::MultiTile(balanced_tile()));
        let ai = s.arithmetic_intensity();
        // 512^3 matmul with 64x64 tiles: far above 1 flop/byte.
        assert!(ai > 5.0, "got {ai}");
    }
}
