//! A warm scoring pass of any neural cost model must not touch the heap
//! beyond its result.
//!
//! `predict_with` scores every drafted shortlist, so it runs on every
//! round; its tape recycles buffers through the `Graph` workspace.
//! The counting global allocator lives out here in an integration test,
//! and a single `#[test]` keeps the measurement single-threaded: the
//! libtest harness would otherwise run tests on worker threads whose
//! incidental allocations would pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use pruner_cost::{AnsorModel, CostModel, PacmModel, Sample, TensetMlpModel, TlpModel};
use pruner_gpu::{GpuSpec, Simulator};
use pruner_ir::Workload;
use pruner_nn::Graph;
use pruner_sketch::Program;
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

/// 300 simulator-priced samples over two tasks: more than one 256-sample
/// chunk, and data-flow sequences shorter than the padded length, so the
/// attention masks have padded rows to mark.
fn samples() -> Vec<Sample> {
    let spec = GpuSpec::t4();
    let sim = Simulator::new(spec.clone());
    let limits = spec.limits();
    let mut rng = ChaCha8Rng::seed_from_u64(31);
    let workloads =
        [Workload::matmul(1, 512, 512, 512), Workload::conv2d(1, 64, 28, 28, 64, 3, 1, 1)];
    (0..300)
        .map(|i| {
            let task = i % workloads.len();
            let p = Program::sample(&workloads[task], &limits, &mut rng);
            Sample::labeled(&p, sim.latency(&p), task)
        })
        .collect()
}

#[test]
fn warm_pacm_predict_allocates_only_its_scores() {
    let samples = samples();
    let models: [Box<dyn CostModel>; 4] = [
        Box::new(PacmModel::new(3)),
        Box::new(TlpModel::new(3)),
        Box::new(TensetMlpModel::new(3)),
        Box::new(AnsorModel::new(3)),
    ];
    for model in models {
        let name = model.name();
        let mut g = Graph::new();
        // Two warm-up passes grow the workspace pool to its fixed point.
        let warm1 = model.predict_with(&mut g, &samples);
        let warm2 = model.predict_with(&mut g, &samples);
        assert_eq!(warm1, warm2, "{name}: warm-up passes must agree");

        ALLOCS.store(0, Ordering::SeqCst);
        COUNTING.store(true, Ordering::SeqCst);
        let measured = model.predict_with(&mut g, &samples);
        COUNTING.store(false, Ordering::SeqCst);
        let n = ALLOCS.load(Ordering::SeqCst);

        assert_eq!(measured, warm1, "{name}: steady-state scores must match warm-up");
        assert_eq!(n, 1, "{name}: warm predict_with made {n} heap allocations, not just its scores");
    }
}
