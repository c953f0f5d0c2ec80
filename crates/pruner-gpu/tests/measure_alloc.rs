//! A measurement's allocations must not grow with its repeats.
//!
//! `Simulator::measure_dist` prices the program once per call: the
//! analytic latency, the program key and the noise distribution are
//! derived once, and each repeat only draws its noise. So a 100-repeat
//! measurement allocates exactly as many times as a 1-repeat one, with or
//! without a fault model on `Simulator::try_measure`.
//!
//! The counting global allocator is the pattern of
//! `pruner-nn/tests/alloc_free.rs`. A single `#[test]` keeps the libtest
//! harness from running another test's allocations into the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use pruner_gpu::{FaultModel, GpuSpec, Simulator};
use pruner_ir::Workload;
use pruner_sketch::{HardwareLimits, Program};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocs<T>(f: impl FnOnce() -> T) -> usize {
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let out = f();
    COUNTING.store(false, Ordering::SeqCst);
    drop(out);
    ALLOCS.load(Ordering::SeqCst)
}

#[test]
fn measurement_allocations_do_not_grow_with_repeats() {
    let clean = Simulator::new(GpuSpec::t4());
    let mut faulty = Simulator::new(GpuSpec::t4());
    // A high rate, so the nonces below hit the fault and outlier branches.
    faulty.set_fault_model(Some(FaultModel::from_rate(0xFA17, 0.5)));
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let wl = Workload::matmul(1, 512, 512, 512);
    let (mut faults, mut outliers) = (0, 0);
    for _ in 0..4 {
        let prog = Program::sample(&wl, &HardwareLimits::default(), &mut rng);
        for nonce in 0..8 {
            let one = allocs(|| clean.measure_dist(&prog, nonce, 1));
            let many = allocs(|| clean.measure_dist(&prog, nonce, 100));
            assert!(one > 0, "the counter must see the call");
            assert_eq!(many, one, "measure_dist: {many} allocations at 100 repeats, {one} at 1");
            // The fault draw depends on the program and the nonce only, so
            // both calls take the same branch.
            let one = allocs(|| faulty.try_measure(&prog, nonce, 1));
            let many = allocs(|| faulty.try_measure(&prog, nonce, 100));
            assert_eq!(many, one, "try_measure: {many} allocations at 100 repeats, {one} at 1");
            match faulty.try_measure(&prog, nonce, 1) {
                Err(_) => faults += 1,
                Ok(m) if m != clean.measure_dist(&prog, nonce, 1) => outliers += 1,
                Ok(_) => {}
            }
        }
    }
    assert!(faults > 0 && outliers > 0, "{faults} faults and {outliers} outliers drawn");
}
