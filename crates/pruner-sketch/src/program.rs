//! Scheduled tensor programs: a workload bound to one schedule.
//!
//! Every method that samples, checks, fingerprints or derives statistics
//! packs the schedule into genes and calls the one implementation on
//! genes in [`crate::arena`].

use crate::arena::{GeneBuf, SketchKind, WorkloadCtx};
use crate::config::{
    reduce_thread_options, ReduceConfig, Schedule, SimpleConfig, TileConfig, ROW_CANDIDATES,
    SIMPLE_SERIAL, SIMPLE_THREADS, UNROLL_CANDIDATES, VECTORIZE_CANDIDATES,
};
use crate::limits::HardwareLimits;
use crate::split::{count_splits, divisors, pad_to_quantum};
use crate::stats::ProgramStats;
use pruner_ir::Workload;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A workload bound to one concrete schedule — a point in the search space.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Program {
    /// The computation being scheduled.
    pub workload: Workload,
    /// The schedule instantiation.
    pub schedule: Schedule,
}

impl Program {
    /// Creates a program from explicit parts.
    pub fn new(workload: Workload, schedule: Schedule) -> Self {
        Program { workload, schedule }
    }

    /// Samples a random valid program for `workload`.
    ///
    /// Rejection-samples up to a fixed budget and falls back to the
    /// canonical schedule of [`Program::fallback`], so this always returns
    /// a launchable program.
    pub fn sample(workload: &Workload, limits: &HardwareLimits, rng: &mut impl Rng) -> Program {
        let ctx = WorkloadCtx::new(workload);
        ctx.program_from_genes(&ctx.sample_genes(limits, rng))
    }

    /// The deterministic canonical schedule: modest tiles, warp-aligned
    /// threads. Used as a sampling fallback and as the seed individual of
    /// evolutionary search.
    pub fn fallback(workload: &Workload) -> Program {
        let schedule = match workload {
            Workload::Elementwise { .. } => {
                Schedule::Simple(SimpleConfig { threads: 256, serial: 4, vectorize: 1 })
            }
            Workload::Reduction { reduce, .. } => {
                let rt = (*reduce).next_power_of_two().clamp(32, 256);
                Schedule::RowReduce(ReduceConfig {
                    rows_per_block: 2,
                    reduce_threads: rt,
                    serial: 2,
                })
            }
            _ => {
                // Distribute a 256-thread budget across axes, innermost
                // first, so the canonical schedule is launchable for any
                // axis count.
                let extents = workload.spatial_extents();
                let mut budget = 256u64;
                let mut spatial: Vec<[u64; 5]> = extents
                    .iter()
                    .rev()
                    .map(|&e| {
                        let split = canonical_spatial_split(e, budget);
                        budget /= split[2];
                        split
                    })
                    .collect();
                spatial.reverse();
                let reduce = workload
                    .reduce_extents()
                    .iter()
                    .map(|&e| canonical_reduce_split(e))
                    .collect();
                Schedule::MultiTile(TileConfig { spatial, reduce, unroll: 16, vectorize: 1 })
            }
        };
        Program::new(workload.clone(), schedule)
    }

    /// The program's genes, with the context (for the schedule's sketch
    /// kind) that reads them.
    ///
    /// # Panics
    /// Panics if the schedule is not a well-formed schedule of the
    /// workload (a split rank differs from the axis count, a factor is 0, a
    /// padded extent is below the true extent, …) — see
    /// [`WorkloadCtx::try_genes`], which says why without panicking.
    pub fn genes(&self) -> (WorkloadCtx, GeneBuf) {
        let ctx = WorkloadCtx::with_kind(&self.workload, SketchKind::of_schedule(&self.schedule));
        let genes = ctx.genes_from_schedule(&self.schedule);
        (ctx, genes)
    }

    /// Derives the program's statistics (footprints, traffic, statements).
    ///
    /// # Panics
    /// Panics where [`Program::genes`] does.
    pub fn stats(&self) -> ProgramStats {
        let (ctx, genes) = self.genes();
        ProgramStats::from_genes(&ctx, &genes)
    }

    /// Whether the schedule satisfies the hard hardware limits.
    ///
    /// # Panics
    /// Panics where [`Program::genes`] does.
    pub fn is_valid(&self, limits: &HardwareLimits) -> bool {
        let (ctx, genes) = self.genes();
        ctx.genes_valid(&genes, limits)
    }

    /// Stable dedup key: workload key plus the schedule encoding.
    ///
    /// This is the *on-disk* identity (store records, checkpoints). Hot
    /// paths dedup by [`Program::fingerprint`] instead, which hashes the
    /// same information without allocating.
    pub fn dedup_key(&self) -> String {
        format!("{}|{:?}", self.workload.key(), self.schedule)
    }

    /// Allocation-free dedup identity: FNV-1a over the workload key and
    /// every schedule field (same constants as `GpuSpec::fingerprint`) —
    /// the fingerprint the candidate arena stores for the same genes.
    ///
    /// Two programs with equal [`Program::dedup_key`] always have equal
    /// fingerprints; the converse holds up to 64-bit hash collisions, which
    /// the test suite pins as absent over sampled pools.
    pub fn fingerprint(&self) -> u64 {
        let (n_s, n_r) = match &self.schedule {
            Schedule::MultiTile(t) => (t.spatial.len(), t.reduce.len()),
            _ => (0, 0),
        };
        let kind = SketchKind::of_schedule(&self.schedule);
        let genes = GeneBuf::from_schedule(&self.schedule);
        genes.fingerprint(workload_fnv(&self.workload), kind, n_s, n_r)
    }

    /// Order-of-magnitude size of the workload's schedule space (ignoring
    /// padding variants and validity filtering) — the "vast search space"
    /// the paper's introduction motivates pruning.
    ///
    /// Multi-tile spaces multiply the ordered factorizations of every axis
    /// by the annotation choices; the simple sketches multiply the option
    /// lists their sampler draws from. Saturates at `u128::MAX` for
    /// gigantic spaces.
    pub fn space_size(workload: &Workload) -> u128 {
        let choices = |lists: &[&[u64]]| lists.iter().map(|l| l.len() as u128).product::<u128>();
        match workload {
            Workload::Elementwise { .. } => {
                choices(&[&SIMPLE_THREADS, &SIMPLE_SERIAL, &VECTORIZE_CANDIDATES])
            }
            Workload::Reduction { reduce, .. } => {
                choices(&[&ROW_CANDIDATES, reduce_thread_options(*reduce), &ROW_CANDIDATES])
            }
            _ => {
                let mut total = choices(&[&UNROLL_CANDIDATES, &VECTORIZE_CANDIDATES]);
                for e in workload.spatial_extents() {
                    total = total.saturating_mul(count_splits(e, 5));
                }
                for e in workload.reduce_extents() {
                    total = total.saturating_mul(count_splits(e, 3));
                }
                total
            }
        }
    }
}

/// FNV-1a offset basis (same constants as `GpuSpec::fingerprint`).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Folds `bytes` into an FNV-1a state.
pub(crate) fn fnv1a_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Folds one `u64` into an FNV-1a state as a single word-wide step.
///
/// Word-at-a-time FNV-1a (xor the whole word, one prime multiply) rather
/// than eight byte steps: the schedule fields hashed here are small
/// integers whose entropy survives a single fold, and the fingerprint is
/// on the per-candidate hot path — eight serial multiplies per field is
/// measurable at million-candidate pools.
#[inline]
pub(crate) fn fnv1a_u64(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(FNV_PRIME)
}

/// FNV-1a state after absorbing the workload key and a `|` separator —
/// the prefix shared by every fingerprint of one workload. The candidate
/// arena caches this so per-candidate hashing never touches a `String`.
pub(crate) fn workload_fnv(workload: &Workload) -> u64 {
    fnv1a_bytes(fnv1a_bytes(FNV_OFFSET, workload.key().as_bytes()), b"|")
}

/// Canonical warp-friendly split of a spatial extent under a thread budget.
fn canonical_spatial_split(extent: u64, thread_budget: u64) -> [u64; 5] {
    let padded = if extent <= 2 || divisors(extent).len() >= 4 {
        extent
    } else {
        pad_to_quantum(extent, 4)
    };
    let thread = largest_divisor_at_most(padded, thread_budget.min(16));
    let rest = padded / thread;
    let serial0 = largest_divisor_at_most(rest, 2);
    let block = rest / serial0;
    [block, 1, thread, serial0, 1]
}

/// Canonical reduction split: stage chunks of ≤ 16.
fn canonical_reduce_split(extent: u64) -> [u64; 3] {
    let padded = if divisors(extent).len() >= 3 { extent } else { pad_to_quantum(extent, 2) };
    let inner = largest_divisor_at_most(padded, 4);
    let rest = padded / inner;
    let mid = largest_divisor_at_most(rest, 4);
    [rest / mid, mid, inner]
}

fn largest_divisor_at_most(n: u64, bound: u64) -> u64 {
    divisors(n).into_iter().rfind(|&d| d <= bound).unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pruner_ir::EwKind;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(0xC0FFEE)
    }

    #[test]
    fn sampled_programs_are_valid() {
        let limits = HardwareLimits::default();
        let mut r = rng();
        for wl in [
            Workload::matmul(1, 512, 512, 512),
            Workload::matmul(12, 128, 128, 64),
            Workload::conv2d(1, 64, 56, 56, 64, 3, 1, 1),
            Workload::dwconv2d(1, 96, 112, 112, 3, 2, 1),
            Workload::conv3d(1, 16, 8, 28, 28, 32, 3, 1, 1),
            Workload::elementwise(EwKind::Gelu, 1 << 18),
            Workload::reduction(2048, 768),
        ] {
            for _ in 0..20 {
                let p = Program::sample(&wl, &limits, &mut r);
                assert!(p.is_valid(&limits), "invalid sample for {wl}");
            }
        }
    }

    #[test]
    fn fallback_is_always_valid() {
        let limits = HardwareLimits::default();
        for wl in [
            Workload::matmul(1, 197, 768, 768), // prime-ish extent
            Workload::conv2d(1, 17, 31, 31, 51, 3, 1, 1),
            Workload::elementwise(EwKind::Relu, 1000),
            Workload::reduction(1000, 997),
        ] {
            let p = Program::fallback(&wl);
            assert!(p.is_valid(&limits), "fallback invalid for {wl}");
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let limits = HardwareLimits::default();
        let wl = Workload::matmul(1, 256, 256, 256);
        let a = Program::sample(&wl, &limits, &mut rng());
        let b = Program::sample(&wl, &limits, &mut rng());
        assert_eq!(a, b);
    }

    #[test]
    fn sampling_explores_distinct_schedules() {
        let limits = HardwareLimits::default();
        let wl = Workload::matmul(1, 512, 512, 512);
        let mut r = rng();
        let mut keys = std::collections::HashSet::new();
        for _ in 0..64 {
            keys.insert(Program::sample(&wl, &limits, &mut r).dedup_key());
        }
        assert!(keys.len() > 40, "only {} distinct schedules in 64 samples", keys.len());
    }

    #[test]
    fn prime_extent_padding_keeps_product_at_least_extent() {
        let limits = HardwareLimits::default();
        let wl = Workload::matmul(1, 197, 64, 64);
        let mut r = rng();
        for _ in 0..100 {
            let Schedule::MultiTile(t) = Program::sample(&wl, &limits, &mut r).schedule else {
                panic!("a matmul samples multi-level tilings");
            };
            let product: u64 = t.spatial[0].iter().product();
            assert!(product >= 197);
            assert!(product <= 224, "padding should stay modest, got {product}");
        }
    }

    #[test]
    fn dedup_key_distinguishes_schedules() {
        let wl = Workload::elementwise(EwKind::Relu, 4096);
        let a = Program::new(
            wl.clone(),
            Schedule::Simple(SimpleConfig { threads: 64, serial: 1, vectorize: 1 }),
        );
        let b = Program::new(
            wl,
            Schedule::Simple(SimpleConfig { threads: 128, serial: 1, vectorize: 1 }),
        );
        assert_ne!(a.dedup_key(), b.dedup_key());
    }

    #[test]
    fn fingerprint_matches_dedup_key_without_collisions() {
        // The u64 fingerprint must be exactly as discriminating as the
        // string key over realistic pools: same key ⇔ same fingerprint.
        let limits = HardwareLimits::default();
        let mut r = rng();
        let mut by_fp: std::collections::HashMap<u64, String> =
            std::collections::HashMap::new();
        let mut by_key: std::collections::HashMap<String, u64> =
            std::collections::HashMap::new();
        for wl in [
            Workload::matmul(1, 512, 512, 512),
            Workload::matmul(12, 128, 128, 64),
            Workload::conv2d(1, 64, 56, 56, 64, 3, 1, 1),
            Workload::dwconv2d(1, 96, 112, 112, 3, 2, 1),
            Workload::conv3d(1, 16, 8, 28, 28, 32, 3, 1, 1),
            Workload::elementwise(EwKind::Gelu, 1 << 18),
            Workload::reduction(2048, 768),
        ] {
            for _ in 0..400 {
                let p = Program::sample(&wl, &limits, &mut r);
                let fp = p.fingerprint();
                let key = p.dedup_key();
                match by_fp.entry(fp) {
                    std::collections::hash_map::Entry::Occupied(e) => {
                        assert_eq!(e.get(), &key, "fingerprint collision at {fp:#x}");
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(key.clone());
                    }
                }
                match by_key.entry(key) {
                    std::collections::hash_map::Entry::Occupied(e) => {
                        assert_eq!(*e.get(), fp, "same key must hash identically");
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(fp);
                    }
                }
            }
        }
        assert!(by_fp.len() > 1000, "pool too small to be meaningful");
    }

    #[test]
    fn fingerprint_is_pure_and_schedule_sensitive() {
        let wl = Workload::elementwise(EwKind::Relu, 4096);
        let a = Program::new(
            wl.clone(),
            Schedule::Simple(SimpleConfig { threads: 64, serial: 1, vectorize: 1 }),
        );
        let b = Program::new(
            wl,
            Schedule::Simple(SimpleConfig { threads: 128, serial: 1, vectorize: 1 }),
        );
        assert_eq!(a.fingerprint(), a.clone().fingerprint());
        assert_ne!(a.fingerprint(), b.fingerprint());
        // Sketch tags keep different kinds from aliasing even with equal
        // field values.
        let wl2 = Workload::reduction(64, 1);
        let c = Program::new(
            wl2.clone(),
            Schedule::RowReduce(ReduceConfig {
                rows_per_block: 64,
                reduce_threads: 1,
                serial: 1,
            }),
        );
        let d = Program::new(
            wl2,
            Schedule::Simple(SimpleConfig { threads: 64, serial: 1, vectorize: 1 }),
        );
        assert_ne!(c.fingerprint(), d.fingerprint());
    }

    #[test]
    fn space_size_is_vast_for_real_workloads() {
        // A 512^3 matmul: two 5-way splits of 512 and one 3-way split —
        // hundreds of millions of schedules even before validity filtering.
        let s = Program::space_size(&Workload::matmul(1, 512, 512, 512));
        assert!(s > 100_000_000, "space unexpectedly small: {s}");
        // Element-wise spaces are tiny by comparison.
        let e = Program::space_size(&Workload::elementwise(EwKind::Relu, 1 << 20));
        assert!(e < 1000);
        assert!(s > e * 1_000_000);
    }

    #[test]
    fn space_size_counts_the_reduction_sampler_choices() {
        // rows_per_block × reduce_threads × serial, where reduce_threads
        // runs over the powers of two from 32 to the row length rounded up
        // (at most 1024): 4 × 6 × 4 for a 768-long row, 4 × 2 × 4 for 40.
        assert_eq!(Program::space_size(&Workload::reduction(2048, 768)), 96);
        assert_eq!(Program::space_size(&Workload::reduction(64, 40)), 32);
        // Every schedule the sampler draws is one of them.
        let limits = HardwareLimits::default();
        let mut r = rng();
        let wl = Workload::reduction(64, 40);
        for _ in 0..200 {
            let Schedule::RowReduce(c) = Program::sample(&wl, &limits, &mut r).schedule else {
                panic!("a reduction samples row-reduce schedules");
            };
            assert!([32, 64].contains(&c.reduce_threads), "{c:?}");
        }
    }

    #[test]
    fn invalid_when_too_many_threads() {
        let wl = Workload::matmul(1, 4096, 4096, 64);
        let t = TileConfig {
            spatial: vec![[1, 1, 2048, 2, 1], [4096, 1, 1, 1, 1]],
            reduce: vec![[64, 1, 1]],
            unroll: 0,
            vectorize: 1,
        };
        let p = Program::new(wl, Schedule::MultiTile(t));
        assert!(!p.is_valid(&HardwareLimits::default()));
    }
}
