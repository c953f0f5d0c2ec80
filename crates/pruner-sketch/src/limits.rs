//! Hardware validity limits for schedule sampling.

use serde::{Deserialize, Serialize};

/// Hard limits a schedule must respect to be launchable at all.
///
/// These are the *validity* constraints the sampler enforces; soft
/// efficiency concerns (warp alignment, occupancy) are deliberately left to
/// the analyzer and cost models, mirroring how Ansor samples programs that
/// compile but may run poorly. Defaults match a generic CUDA GPU; a
/// platform-specific value can be derived from a `GpuSpec` higher in the
/// stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HardwareLimits {
    /// Maximum threads per block the hardware can launch (CUDA: 1024).
    pub max_threads_per_block: u64,
    /// Scheduling granularity; threads are issued in warps of this size.
    pub warp_size: u64,
    /// Maximum dynamic shared memory per block, in bytes (CUDA default 48 KiB).
    pub max_shared_bytes_per_block: u64,
    /// Architectural per-thread register cap (CUDA: 255); schedules above
    /// this spill to local memory rather than failing, so the sampler
    /// rejects only schedules that exceed `register_slack ×` this value.
    pub max_registers_per_thread: u64,
    /// Multiplier on the register cap beyond which a schedule is rejected
    /// outright instead of being modeled as spilling.
    pub register_slack: u64,
    /// Maximum virtual threads (TVM's vthread) per block.
    pub max_vthreads: u64,
}

impl Default for HardwareLimits {
    fn default() -> Self {
        HardwareLimits {
            max_threads_per_block: 1024,
            warp_size: 32,
            max_shared_bytes_per_block: 48 * 1024,
            max_registers_per_thread: 255,
            register_slack: 4,
            max_vthreads: 16,
        }
    }
}

impl HardwareLimits {
    /// Absolute register bound used for sampling rejection.
    pub(crate) fn register_reject_bound(&self) -> u64 {
        self.max_registers_per_thread * self.register_slack
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_limits_are_cuda_like() {
        let l = HardwareLimits::default();
        assert_eq!(l.max_threads_per_block, 1024);
        assert_eq!(l.warp_size, 32);
        assert_eq!(l.register_reject_bound(), 255 * 4);
    }
}
