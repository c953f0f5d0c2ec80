//! A steady-state proposal round must not allocate its pool again.
//!
//! The campaign lends one `CandidateArena` to every `TaskTuner::propose`;
//! generation, dedup and the stats fill write its columns in place. So the
//! first round pays for the columns and every later round allocates only
//! what scales with the shortlist, not with the pool.
//!
//! The library crates are `#![forbid(unsafe_code)]`, so the counting global
//! allocator lives out here in an integration test (the pattern of
//! `pruner-nn/tests/alloc_free.rs`). A single `#[test]` keeps the libtest
//! harness from running another test's allocations into the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use pruner_cost::RandomModel;
use pruner_gpu::{GpuSpec, Simulator};
use pruner_ir::Workload;
use pruner_psa::Psa;
use pruner_sketch::{CandidateArena, Program};
use pruner_trace::NoopRecorder;
use pruner_tuner::{Measurer, ProposeParams, TaskTuner};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static BYTES: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        }
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            BYTES.fetch_add(new_size.saturating_sub(layout.size()), Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const POOL: usize = 32_768;

#[test]
fn later_rounds_do_not_allocate_the_pool_again() {
    let spec = GpuSpec::t4();
    let limits = spec.limits();
    let psa = Psa::new(spec.clone());
    let model = RandomModel::new(1);
    let mut measurer = Measurer::new(Simulator::new(spec));
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let mut task = TaskTuner::new(Workload::matmul(1, 512, 512, 512), 0, 1);
    // As the campaign's warm-up does: every round breeds from elites.
    let fallback = Program::fallback(&task.workload);
    let latency = measurer.measure_trusted(&fallback);
    task.record(fallback, latency);
    let mut arena = CandidateArena::default();

    let mut bytes = Vec::new();
    let mut survivors = Vec::new();
    for round in 0..4 {
        let params = ProposeParams {
            space_size: 256,
            pool_size: POOL,
            epsilon: 0.05,
            n: 8,
            seed: 7,
            round,
            threads: 2,
        };
        BYTES.store(0, Ordering::SeqCst);
        COUNTING.store(true, Ordering::SeqCst);
        let (programs, funnel) = task.propose(
            &model,
            Some(&psa),
            &mut measurer,
            &limits,
            &params,
            &mut rng,
            &mut arena,
            &mut NoopRecorder,
        );
        COUNTING.store(false, Ordering::SeqCst);
        bytes.push(BYTES.load(Ordering::SeqCst));
        // As the tuner does after every proposal: only a pool below the
        // fan-out size gives its storage back, and this one is above it.
        arena.release_if_small();
        assert_eq!(funnel.generated, POOL);
        survivors.push(funnel.deduped);
        for p in programs {
            let outcome = measurer.measure(&p, &mut NoopRecorder);
            let latency = outcome.latency().expect("the simulator does not fail");
            task.record(p, latency);
        }
    }

    // The comparison only means something if the later pools are as large
    // as the first one's.
    let most = *survivors[1..].iter().max().expect("three later rounds");
    assert!(most * 2 >= survivors[0], "later rounds shrank: {survivors:?}");
    // Round one sizes the gene columns for the pool and the stats columns
    // for its survivors.
    assert!(bytes[0] > POOL * 100, "round 1 allocated only {} bytes", bytes[0]);
    for (round, &b) in bytes.iter().enumerate().skip(1) {
        assert!(
            b * 4 < bytes[0],
            "round {} allocated {b} bytes, round 1 {}: the pool was allocated again \
             (all rounds: {bytes:?}, survivors {survivors:?})",
            round + 1,
            bytes[0]
        );
    }
}
