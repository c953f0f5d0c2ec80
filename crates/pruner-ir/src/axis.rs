//! Loop axes of a workload's canonical nest.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Whether a loop axis is spatial (parallelizable) or a reduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AxisKind {
    /// A data-parallel axis; iterations write disjoint output elements.
    Spatial,
    /// A reduction axis; iterations accumulate into the same output element.
    Reduce,
}

impl fmt::Display for AxisKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AxisKind::Spatial => write!(f, "spatial"),
            AxisKind::Reduce => write!(f, "reduce"),
        }
    }
}

/// One loop of a workload's canonical loop nest.
///
/// Axes carry a short name for debugging (`"m"`, `"co"`, `"rk"`, …), their
/// trip count and whether they are spatial or reduction loops. The schedule
/// generator tiles spatial axes with the SSSRRSRS multi-level pattern and
/// reduction axes with a three-level split.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Axis {
    /// Short human-readable name, unique within one workload.
    pub name: &'static str,
    /// Trip count of the loop. Always at least 1.
    pub extent: u64,
    /// Spatial or reduction.
    pub kind: AxisKind,
}

impl Axis {
    /// Creates a spatial axis.
    ///
    /// # Panics
    /// Panics if `extent` is zero — a zero-trip loop nest computes nothing
    /// and would poison every downstream latency formula.
    pub fn spatial(name: &'static str, extent: u64) -> Self {
        assert!(extent > 0, "axis {name} must have non-zero extent");
        Axis { name, extent, kind: AxisKind::Spatial }
    }

    /// Creates a reduction axis.
    ///
    /// # Panics
    /// Panics if `extent` is zero.
    pub fn reduce(name: &'static str, extent: u64) -> Self {
        assert!(extent > 0, "axis {name} must have non-zero extent");
        Axis { name, extent, kind: AxisKind::Reduce }
    }

    /// Returns `true` for spatial axes.
    pub(crate) fn is_spatial(&self) -> bool {
        self.kind == AxisKind::Spatial
    }
}

impl fmt::Display for Axis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}:{}]", self.name, self.extent, self.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spatial_axis_roundtrip() {
        let a = Axis::spatial("m", 64);
        assert!(a.is_spatial());
        assert_eq!(a.extent, 64);
        assert_eq!(a.to_string(), "m[64:spatial]");
    }

    #[test]
    fn reduce_axis_is_not_spatial() {
        let a = Axis::reduce("k", 128);
        assert!(!a.is_spatial());
        assert_eq!(a.to_string(), "k[128:reduce]");
    }

    #[test]
    #[should_panic(expected = "non-zero extent")]
    fn zero_extent_panics() {
        let _ = Axis::spatial("m", 0);
    }
}
