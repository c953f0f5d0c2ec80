//! Concrete schedule configurations.

use serde::{Deserialize, Serialize};

/// Allowed `#pragma unroll` depths, mirroring Ansor's candidate set.
pub(crate) const UNROLL_CANDIDATES: [u64; 4] = [0, 16, 64, 512];

/// Allowed vector widths for cooperative shared-memory loads.
pub(crate) const VECTORIZE_CANDIDATES: [u64; 3] = [1, 2, 4];

/// Threads per block of the element-wise sketch.
pub(crate) const SIMPLE_THREADS: [u64; 6] = [32, 64, 128, 256, 512, 1024];

/// Serial elements per thread of the element-wise sketch.
pub(crate) const SIMPLE_SERIAL: [u64; 5] = [1, 2, 4, 8, 16];

/// Rows per block, and serial elements per thread, of the row reduction.
pub(crate) const ROW_CANDIDATES: [u64; 4] = [1, 2, 4, 8];

/// Threads cooperating on one reduced row; a reduction samples the prefix
/// [`reduce_thread_options`] picks, mutation the first five.
pub(crate) const REDUCE_THREADS: [u64; 6] = [32, 64, 128, 256, 512, 1024];

/// The `reduce_threads` choices sampling draws from for a reduction of
/// length `reduce`: every power of two from 32 up to `reduce` rounded up to
/// one, capped at 1024.
pub(crate) fn reduce_thread_options(reduce: u64) -> &'static [u64] {
    let max = reduce.next_power_of_two().clamp(32, 1024);
    &REDUCE_THREADS[..REDUCE_THREADS.iter().take_while(|&&rt| rt <= max).count()]
}

/// Multi-level tiling configuration — the GPU "SSSRRSRS" sketch.
///
/// Every spatial axis is split (outer → inner) into
/// `[block, vthread, thread, serial0, serial1]` factors and every reduction
/// axis into `[outer, mid, inner]` factors. Factor products equal the axis
/// extents (the sampler pads awkward extents first, recording the waste).
/// `blockIdx` binds the product of the block factors, `threadIdx` the
/// product of the thread factors; shared-memory staging happens at each
/// iteration of the outer reduction loops and the staged chunk is
/// `mid × inner` elements per reduction axis.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TileConfig {
    /// Per spatial axis: `[block, vthread, thread, serial0, serial1]`.
    pub spatial: Vec<[u64; 5]>,
    /// Per reduction axis: `[outer, mid, inner]`.
    pub reduce: Vec<[u64; 3]>,
    /// Maximum automatic unroll depth (0 disables unrolling).
    pub unroll: u64,
    /// Vector width of cooperative global→shared loads (1, 2 or 4).
    pub vectorize: u64,
}

impl TileConfig {
    /// Number of thread blocks (`Π block_i`).
    pub fn num_blocks(&self) -> u64 {
        self.spatial.iter().map(|s| s[0]).product()
    }

    /// Virtual threads per block (`Π vthread_i`).
    pub fn vthreads(&self) -> u64 {
        self.spatial.iter().map(|s| s[1]).product()
    }

    /// Real threads per block (`Π thread_i`).
    pub fn threads_per_block(&self) -> u64 {
        self.spatial.iter().map(|s| s[2]).product()
    }

    /// Per-axis spatial tile owned by one block
    /// (`vthread × thread × serial0 × serial1`).
    pub fn block_tile(&self) -> Vec<u64> {
        self.spatial.iter().map(|s| s[1] * s[2] * s[3] * s[4]).collect()
    }

    /// Number of outer reduction iterations (shared-memory staging steps).
    pub fn reduce_outer_steps(&self) -> u64 {
        self.reduce.iter().map(|r| r[0]).product()
    }
}

/// Schedule for element-wise workloads: flatten, then split into
/// `[grid, threads, serial, vector]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SimpleConfig {
    /// Threads per block.
    pub threads: u64,
    /// Serial elements per thread.
    pub serial: u64,
    /// Vector load/store width.
    pub vectorize: u64,
}

impl SimpleConfig {
    /// Blocks needed to cover `len` elements.
    pub(crate) fn num_blocks(&self, len: u64) -> u64 {
        let per_block = self.threads * self.serial * self.vectorize;
        len.div_ceil(per_block).max(1)
    }
}

/// Schedule for row reductions: `rows_per_block` rows per block, each row
/// reduced by `reduce_threads` threads (tree reduction) reading
/// `serial`-element chunks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ReduceConfig {
    /// Rows assigned to one block.
    pub rows_per_block: u64,
    /// Threads cooperating on one row (power of two).
    pub reduce_threads: u64,
    /// Contiguous elements read per thread per step.
    pub serial: u64,
}

impl ReduceConfig {
    /// Threads per block.
    pub fn threads_per_block(&self) -> u64 {
        self.rows_per_block * self.reduce_threads
    }

    /// Blocks needed to cover `rows` rows.
    pub(crate) fn num_blocks(&self, rows: u64) -> u64 {
        rows.div_ceil(self.rows_per_block).max(1)
    }
}

/// A concrete schedule: which sketch the program instantiates.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Schedule {
    /// Multi-level tiling with shared-memory staging (matmul/conv family).
    MultiTile(TileConfig),
    /// Flat element-wise schedule.
    Simple(SimpleConfig),
    /// Cross-thread row reduction schedule.
    RowReduce(ReduceConfig),
}

impl Schedule {
    /// The unroll annotation if the sketch carries one.
    pub fn unroll(&self) -> u64 {
        match self {
            Schedule::MultiTile(t) => t.unroll,
            _ => 0,
        }
    }

    /// The vectorization annotation.
    pub fn vectorize(&self) -> u64 {
        match self {
            Schedule::MultiTile(t) => t.vectorize,
            Schedule::Simple(s) => s.vectorize,
            Schedule::RowReduce(_) => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_tile() -> TileConfig {
        TileConfig {
            // extent 64 = 4*2*4*2*1, extent 128 = 8*1*16*1*1
            spatial: vec![[4, 2, 4, 2, 1], [8, 1, 16, 1, 1]],
            // extent 32 = 4*2*4
            reduce: vec![[4, 2, 4]],
            unroll: 64,
            vectorize: 4,
        }
    }

    #[test]
    fn tile_aggregates() {
        let t = demo_tile();
        assert_eq!(t.num_blocks(), 32);
        assert_eq!(t.vthreads(), 2);
        assert_eq!(t.threads_per_block(), 64);
        assert_eq!(t.block_tile(), vec![16, 16]);
        assert_eq!(t.reduce_outer_steps(), 4);
    }

    #[test]
    fn simple_block_count_covers_len() {
        let c = SimpleConfig { threads: 128, serial: 4, vectorize: 2 };
        assert_eq!(c.num_blocks(1 << 20), (1 << 20) / 1024);
        assert_eq!(c.num_blocks(1), 1);
        // Partial last block still counted.
        assert_eq!(c.num_blocks(1025), 2);
    }

    #[test]
    fn reduce_threads_per_block() {
        let c = ReduceConfig { rows_per_block: 4, reduce_threads: 64, serial: 2 };
        assert_eq!(c.threads_per_block(), 256);
        assert_eq!(c.num_blocks(1000), 250);
    }

    #[test]
    fn schedule_annotations() {
        let s = Schedule::MultiTile(demo_tile());
        assert_eq!(s.unroll(), 64);
        assert_eq!(s.vectorize(), 4);
        let e = Schedule::Simple(SimpleConfig { threads: 64, serial: 1, vectorize: 1 });
        assert_eq!(e.unroll(), 0);
    }
}
