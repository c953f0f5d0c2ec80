//! Vendor-library oracle: the PyTorch-cuDNN comparison baseline.
//!
//! Figure 7 compares tuned kernels against `PyTorch-cudnn`. Instead of the
//! real library this module prices each workload near its roofline with
//! efficiency factors mirroring vendor behavior: highly tuned GEMMs, a
//! Winograd fast path for regular 3×3 stride-1 convolutions (the cases
//! where the paper's Pruner *loses* to cuDNN), and mediocre performance on
//! irregular shapes where hand-written kernels do not specialize.

use crate::spec::GpuSpec;
use pruner_ir::Workload;

/// Latency (seconds) of the vendor library for `workload` on `spec`.
pub fn vendor_latency(spec: &GpuSpec, workload: &Workload) -> f64 {
    let flops = workload.flops();
    let bytes =
        (workload.operand_elems().iter().sum::<u64>() + workload.output_elems()) as f64 * 4.0;
    let (mut flop_eff, mem_eff) = efficiency(workload);
    // Winograd replaces 3x3 convolutions with a transform needing ~2.25x
    // fewer multiplies; model it as >1 effective efficiency.
    if winograd_applicable(workload) {
        flop_eff *= 2.0;
    }
    let compute = flops / (spec.peak_gflops * 1e9 * flop_eff);
    let memory = bytes / (spec.dram_gbps * 1e9 * mem_eff);
    // Framework dispatch (eager PyTorch) costs ~12 us on top of launch.
    compute.max(memory) + spec.launch_overhead_us * 1e-6 * 1.5 + 12e-6
}

/// (compute efficiency, memory efficiency) the library achieves.
fn efficiency(workload: &Workload) -> (f64, f64) {
    match workload {
        Workload::MatMul(s) => {
            // cuBLAS loves big aligned GEMMs, hates skinny ones.
            let min_dim = s.m.min(s.n).min(s.k);
            let aligned = s.m % 32 == 0 && s.n % 32 == 0 && s.k % 32 == 0;
            // PyTorch-dispatched cuBLAS: strong but not bare-metal peak
            // (framework overhead, no per-shape autotuning).
            let base: f64 = if min_dim >= 256 {
                0.55
            } else if min_dim >= 64 {
                0.42
            } else {
                0.25
            };
            (if aligned { base } else { base * 0.6 }, 0.65)
        }
        Workload::Conv2d(s) => {
            let regular = s.c % 16 == 0 && s.co % 16 == 0;
            let base: f64 = if regular { 0.45 } else { 0.20 };
            (base, 0.6)
        }
        Workload::Conv3d(_) => (0.4, 0.6),
        // Depthwise convolutions are memory-bound and not a cuDNN strength.
        Workload::DepthwiseConv2d(_) => (0.35, 0.55),
        Workload::Elementwise { .. } => (0.5, 0.85),
        Workload::Reduction { .. } => (0.4, 0.8),
    }
}

/// Whether the vendor library would dispatch a Winograd kernel.
pub(crate) fn winograd_applicable(workload: &Workload) -> bool {
    match workload {
        Workload::Conv2d(s) => {
            s.kh == 3
                && s.kw == 3
                && s.stride == 1
                && s.dilation == 1
                && s.c >= 32
                && s.co >= 32
                && s.c % 16 == 0
                && s.co % 16 == 0
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn winograd_detects_regular_convs() {
        assert!(winograd_applicable(&Workload::conv2d(1, 64, 56, 56, 64, 3, 1, 1)));
        assert!(!winograd_applicable(&Workload::conv2d(1, 64, 56, 56, 64, 3, 2, 1)));
        assert!(!winograd_applicable(&Workload::conv2d(1, 17, 31, 31, 51, 3, 1, 1)));
        assert!(!winograd_applicable(&Workload::matmul(1, 64, 64, 64)));
    }

    #[test]
    fn winograd_conv_much_faster_than_irregular() {
        let spec = GpuSpec::titan_v();
        let regular = Workload::conv2d(1, 128, 28, 28, 128, 3, 1, 1);
        let irregular = Workload::conv2d(1, 33, 13, 13, 77, 3, 1, 1);
        let lr = vendor_latency(&spec, &regular) / regular.flops();
        let li = vendor_latency(&spec, &irregular) / irregular.flops();
        assert!(lr < li, "per-flop cost should favor the regular conv");
    }

    #[test]
    fn big_gemm_within_framework_overhead_of_peak() {
        let spec = GpuSpec::a100();
        let wl = Workload::matmul(1, 4096, 4096, 4096);
        let lat = vendor_latency(&spec, &wl);
        let ideal = wl.flops() / (spec.peak_gflops * 1e9);
        assert!(lat < ideal * 2.2, "large GEMM should stay near peak");
        assert!(lat > ideal, "nothing beats the roofline");
    }

    #[test]
    fn vendor_latency_positive_for_all_kinds() {
        let spec = GpuSpec::t4();
        for wl in pruner_ir::suites::full_suite() {
            let lat = vendor_latency(&spec, &wl);
            assert!(lat > 0.0 && lat.is_finite(), "{wl}");
        }
    }
}
