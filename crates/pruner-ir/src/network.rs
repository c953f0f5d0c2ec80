//! Networks as weighted bags of subgraphs.

use crate::workload::Workload;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A tuning task: one workload plus how many times it occurs in a network.
///
/// The occurrence count is the `w_i` weight in the paper's Top-k / Best-k
/// metrics (Appendix A) and in end-to-end latency accounting: a network's
/// latency is `Σ_i w_i · latency_i` over its subgraphs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Subgraph {
    /// The fused computation to schedule.
    pub workload: Workload,
    /// Occurrence count in the parent network (`w_i`).
    pub weight: u64,
}

impl Subgraph {
    /// Creates a subgraph with the given occurrence count.
    ///
    /// # Panics
    /// Panics if `weight` is zero.
    pub fn new(workload: Workload, weight: u64) -> Self {
        assert!(weight > 0, "subgraph weight must be positive");
        Subgraph { workload, weight }
    }

    /// Weighted FLOPs contributed to the parent network.
    pub fn weighted_flops(&self) -> f64 {
        self.weight as f64 * self.workload.flops()
    }
}

/// A DNN represented as a weighted multiset of subgraphs.
///
/// Identical workloads occurring in several layers are merged into one
/// subgraph with a higher weight — the same de-duplication TVM's task
/// extraction performs, and the reason tuning 29 tasks can cover a
/// 50-layer ResNet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Network {
    name: String,
    subgraphs: Vec<Subgraph>,
}

impl Network {
    /// Creates an empty network with the given display name.
    pub fn new(name: impl Into<String>) -> Self {
        Network { name: name.into(), subgraphs: Vec::new() }
    }

    /// The network's display name (e.g. `"resnet50-b1"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The de-duplicated subgraphs with their occurrence counts.
    pub fn subgraphs(&self) -> &[Subgraph] {
        &self.subgraphs
    }

    /// Adds `count` occurrences of `workload`, merging with an existing
    /// identical subgraph if present.
    pub fn add(&mut self, workload: Workload, count: u64) -> &mut Self {
        assert!(count > 0, "occurrence count must be positive");
        if let Some(sg) = self.subgraphs.iter_mut().find(|sg| sg.workload == workload) {
            sg.weight += count;
        } else {
            self.subgraphs.push(Subgraph::new(workload, count));
        }
        self
    }

    /// Total FLOPs of one inference pass.
    pub fn total_flops(&self) -> f64 {
        self.subgraphs.iter().map(Subgraph::weighted_flops).sum()
    }

    /// Number of distinct subgraphs (tuning tasks).
    pub fn num_tasks(&self) -> usize {
        self.subgraphs.len()
    }
}

impl fmt::Display for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} tasks)", self.name, self.subgraphs.len())
    }
}

impl Extend<Subgraph> for Network {
    fn extend<T: IntoIterator<Item = Subgraph>>(&mut self, iter: T) {
        for sg in iter {
            self.add(sg.workload, sg.weight);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_workloads_merge() {
        let mut net = Network::new("test");
        let wl = Workload::matmul(1, 64, 64, 64);
        net.add(wl.clone(), 2);
        net.add(wl.clone(), 3);
        assert_eq!(net.num_tasks(), 1);
        assert_eq!(net.subgraphs()[0].weight, 5);
    }

    #[test]
    fn total_flops_sums_weighted() {
        let mut net = Network::new("test");
        let wl = Workload::matmul(1, 8, 8, 8);
        net.add(wl.clone(), 4);
        assert_eq!(net.total_flops(), 4.0 * wl.flops());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_weight_rejected() {
        Subgraph::new(Workload::matmul(1, 8, 8, 8), 0);
    }

    #[test]
    fn extend_merges() {
        let mut net = Network::new("a");
        let wl = Workload::matmul(1, 8, 8, 8);
        net.add(wl.clone(), 1);
        net.extend([Subgraph::new(wl, 2)]);
        assert_eq!(net.num_tasks(), 1);
        assert_eq!(net.subgraphs()[0].weight, 3);
    }
}
