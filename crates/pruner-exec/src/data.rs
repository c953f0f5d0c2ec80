//! Deterministic synthetic operand data.
//!
//! Every workload executes against fixed pseudo-random inputs so that the
//! executed output of a program is a pure function of the workload — the
//! property the bit-identity tests against the naive reference rely on.
//! Values are strictly positive (in `[0.5, 1.5)`), which keeps both the
//! executed and the reference accumulations away from signed-zero edge
//! cases: a sum of positive terms can never produce `-0.0`, so skipping a
//! zero-padding contribution and adding `+0.0` are bit-equivalent.

use pruner_ir::Workload;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Synthetic value of element `i` of operand `op`: a Weyl-style integer
/// hash mapped into `[0.5, 1.5)`. Distinct operands use disjoint streams.
pub fn synth_value(op: usize, i: u64) -> f32 {
    let h = i
        .wrapping_add((op as u64 + 1) << 32)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let frac = ((h >> 32) as u32) as f32 / 4_294_967_296.0;
    0.5 + frac
}

/// The input operand tensors of a workload, generated once per distinct
/// workload and shared process-wide (measurement repeats and the
/// differential tests all see the same bits).
pub(crate) fn operand_data(workload: &Workload) -> Arc<Vec<Vec<f32>>> {
    type Cache = Mutex<HashMap<String, Arc<Vec<Vec<f32>>>>>;
    static CACHE: OnceLock<Cache> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let key = workload.key();
    let mut guard = cache.lock().expect("operand cache poisoned");
    if let Some(hit) = guard.get(&key) {
        return Arc::clone(hit);
    }
    let data: Vec<Vec<f32>> = workload
        .operand_elems()
        .iter()
        .enumerate()
        .map(|(op, &elems)| (0..elems).map(|i| synth_value(op, i)).collect())
        .collect();
    let data = Arc::new(data);
    guard.insert(key, Arc::clone(&data));
    data
}

#[cfg(test)]
mod tests {
    use super::*;
    use pruner_ir::EwKind;

    #[test]
    fn values_are_strictly_positive_and_bounded() {
        for op in 0..3 {
            for i in 0..10_000u64 {
                let v = synth_value(op, i);
                assert!((0.5..1.5).contains(&v), "synth_value({op}, {i}) = {v}");
            }
        }
    }

    #[test]
    fn operands_use_distinct_streams() {
        let a: Vec<f32> = (0..100).map(|i| synth_value(0, i)).collect();
        let b: Vec<f32> = (0..100).map(|i| synth_value(1, i)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn data_is_cached_per_workload() {
        let wl = Workload::elementwise(EwKind::Add, 256);
        let first = operand_data(&wl);
        let second = operand_data(&wl);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(first.len(), 2, "Add reads two operands");
        assert_eq!(first[0].len(), 256);
    }
}
