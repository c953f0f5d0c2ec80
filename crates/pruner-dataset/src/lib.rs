//! Tenset-style offline datasets.
//!
//! The paper pre-trains and evaluates cost models on TensetGPUs: thousands
//! of subgraphs harvested from real networks, thousands of measured
//! programs each, on NVIDIA K80 and T4. This crate generates the scaled
//! equivalent: it harvests the de-duplicated subgraphs of the model zoo,
//! samples schedules for each, labels them with the platform simulator
//! (in parallel, via `pruner_par`), and serializes the result
//! with serde.
//!
//! Entry points: [`Dataset::generate`] (from networks),
//! [`Dataset::to_samples`] / [`Dataset::split`] (cost-model training), and
//! [`Dataset::save_json`] / [`Dataset::load_json`].
//!
//! # Example
//!
//! ```
//! use pruner_dataset::Dataset;
//! use pruner_gpu::GpuSpec;
//! use pruner_ir::zoo;
//!
//! let ds = Dataset::generate(&GpuSpec::t4(), &[zoo::bert_tiny(1, 64)], 8, 0);
//! assert!(ds.num_programs() > 0);
//! let (train, test) = ds.split(0.8, 1);
//! assert!(!train.is_empty() && !test.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

use pruner_cost::Sample;
use pruner_gpu::{GpuSpec, Simulator};
use pruner_ir::{Network, Workload};
use pruner_par::fan_out_mut;
use pruner_sketch::{evolve, Program};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::io;
use std::path::Path;

/// One subgraph's labeled programs on one platform.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DatasetEntry {
    /// The subgraph workload.
    pub workload: Workload,
    /// Occurrence weight across the harvested networks (`w_i`).
    pub weight: u64,
    /// Sampled programs.
    pub programs: Vec<Program>,
    /// Simulator latencies, parallel to `programs` (seconds).
    pub latencies: Vec<f64>,
}

impl DatasetEntry {
    /// The true optimum inside this entry's program set.
    pub fn optimum(&self) -> f64 {
        self.latencies.iter().cloned().fold(f64::INFINITY, f64::min)
    }
}

/// A labeled offline dataset for one platform.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dataset {
    /// Platform name the labels were generated on.
    pub platform: String,
    /// Per-subgraph entries.
    pub entries: Vec<DatasetEntry>,
}

impl Dataset {
    /// Harvests the de-duplicated subgraphs of `networks` and labels
    /// `programs_per_subgraph` sampled schedules per subgraph on `spec`.
    ///
    /// Element-wise/reduction subgraphs have tiny schedule spaces and are
    /// kept only if at least four distinct programs exist. Generation is
    /// deterministic in `seed` and parallelized across subgraphs.
    pub fn generate(
        spec: &GpuSpec,
        networks: &[Network],
        programs_per_subgraph: usize,
        seed: u64,
    ) -> Dataset {
        let mut merged = Network::new("harvest");
        for net in networks {
            for sg in net.subgraphs() {
                merged.add(sg.workload.clone(), sg.weight);
            }
        }
        let pairs: Vec<(Workload, u64)> = merged
            .subgraphs()
            .iter()
            .map(|sg| (sg.workload.clone(), sg.weight))
            .collect();
        Self::generate_entries(spec, &pairs, programs_per_subgraph, seed)
    }

    fn generate_entries(
        spec: &GpuSpec,
        pairs: &[(Workload, u64)],
        programs_per_subgraph: usize,
        seed: u64,
    ) -> Dataset {
        let sim = Simulator::new(spec.clone());
        let limits = spec.limits();
        let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        let mut entries: Vec<Option<DatasetEntry>> = vec![None; pairs.len()];
        fan_out_mut(&mut entries, 1, threads, |first, slots| {
            for (slot, (wl, weight)) in slots.iter_mut().zip(&pairs[first..]) {
                let mut hasher = DefaultHasher::new();
                seed.hash(&mut hasher);
                wl.key().hash(&mut hasher);
                let mut rng = ChaCha8Rng::seed_from_u64(hasher.finish());
                let programs =
                    evolve::init_population(wl, programs_per_subgraph, &limits, &mut rng);
                if programs.len() < 4 {
                    continue;
                }
                let latencies: Vec<f64> = programs.iter().map(|p| sim.latency(p)).collect();
                *slot = Some(DatasetEntry {
                    workload: wl.clone(),
                    weight: *weight,
                    programs,
                    latencies,
                });
            }
        });
        Dataset {
            platform: spec.name.clone(),
            entries: entries.into_iter().flatten().collect(),
        }
    }

    /// Builds a dataset from already-measured programs — the export path
    /// from a persistent tuning-record store (`pruner-tune records
    /// export`). Programs are grouped into one entry per workload in
    /// first-seen order, weight 1 each; entries keep the measurement
    /// order, so the result is deterministic in the input order.
    pub fn from_measurements(
        platform: impl Into<String>,
        measurements: impl IntoIterator<Item = (Program, f64)>,
    ) -> Dataset {
        let mut index: std::collections::HashMap<String, usize> =
            std::collections::HashMap::new();
        let mut entries: Vec<DatasetEntry> = Vec::new();
        for (program, latency_s) in measurements {
            let key = program.workload.key();
            let ei = *index.entry(key).or_insert_with(|| {
                entries.push(DatasetEntry {
                    workload: program.workload.clone(),
                    weight: 1,
                    programs: Vec::new(),
                    latencies: Vec::new(),
                });
                entries.len() - 1
            });
            entries[ei].programs.push(program);
            entries[ei].latencies.push(latency_s);
        }
        Dataset { platform: platform.into(), entries }
    }

    /// Total labeled programs.
    pub fn num_programs(&self) -> usize {
        self.entries.iter().map(|e| e.programs.len()).sum()
    }

    /// Featurizes every entry into cost-model samples (task id = entry
    /// index).
    pub fn to_samples(&self) -> Vec<Sample> {
        let mut out = Vec::with_capacity(self.num_programs());
        for (task, e) in self.entries.iter().enumerate() {
            for (p, &l) in e.programs.iter().zip(&e.latencies) {
                out.push(Sample::labeled(p, l, task));
            }
        }
        out
    }

    /// Subgraph-level train/test split (whole entries go to one side, like
    /// Tenset's protocol), shuffled deterministically by `seed`.
    ///
    /// # Panics
    /// Panics if `train_frac` is outside `(0, 1)`.
    pub fn split(&self, train_frac: f64, seed: u64) -> (Vec<Sample>, Vec<Sample>) {
        assert!((0.0..1.0).contains(&train_frac) && train_frac > 0.0, "bad split fraction");
        let mut order: Vec<usize> = (0..self.entries.len()).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for i in (1..order.len()).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        let n_train = ((self.entries.len() as f64) * train_frac).round().max(1.0) as usize;
        let mut train = Vec::new();
        let mut test = Vec::new();
        for (pos, &ei) in order.iter().enumerate() {
            let e = &self.entries[ei];
            let dst = if pos < n_train { &mut train } else { &mut test };
            for (p, &l) in e.programs.iter().zip(&e.latencies) {
                dst.push(Sample::labeled(p, l, ei));
            }
        }
        (train, test)
    }

    /// Keeps only the first `n` samples per entry — the data-size sweep of
    /// Figure 6.
    pub fn truncated(&self, n: usize) -> Dataset {
        let entries = self
            .entries
            .iter()
            .map(|e| DatasetEntry {
                workload: e.workload.clone(),
                weight: e.weight,
                programs: e.programs.iter().take(n).cloned().collect(),
                latencies: e.latencies.iter().take(n).cloned().collect(),
            })
            .collect();
        Dataset { platform: self.platform.clone(), entries }
    }

    /// Serializes to compact JSON (datasets are large; nobody reads them
    /// by eye), written atomically and durably
    /// ([`pruner_durable::write_atomic_durable`]).
    ///
    /// # Errors
    /// Propagates filesystem and serialization errors.
    pub fn save_json(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let json = serde_json::to_string(self)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        pruner_durable::write_atomic_durable(path.as_ref(), &json, None)
    }

    /// Loads a dataset saved by [`Dataset::save_json`].
    ///
    /// # Errors
    /// Propagates filesystem and deserialization errors.
    pub fn load_json(path: impl AsRef<Path>) -> io::Result<Dataset> {
        let file = std::fs::File::open(path)?;
        serde_json::from_reader(io::BufReader::new(file))
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

/// The network mix Table 1 evaluates on (R-50, MB-V2, R3D-18, BERT
/// base/tiny), at batch 1.
pub fn table1_networks() -> Vec<Network> {
    use pruner_ir::zoo;
    vec![
        zoo::resnet50(1),
        zoo::mobilenet_v2(1),
        zoo::r3d_18(1),
        zoo::bert_base(1, 128),
        zoo::bert_tiny(1, 128),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use pruner_ir::zoo;

    fn tiny_dataset() -> Dataset {
        Dataset::generate(&GpuSpec::t4(), &[zoo::bert_tiny(1, 64)], 12, 7)
    }

    #[test]
    fn generation_is_deterministic() {
        let a = tiny_dataset();
        let b = tiny_dataset();
        assert_eq!(a.num_programs(), b.num_programs());
        assert_eq!(a.entries[0].latencies, b.entries[0].latencies);
    }

    #[test]
    fn entries_have_positive_latencies() {
        let ds = tiny_dataset();
        assert!(!ds.entries.is_empty());
        for e in &ds.entries {
            assert_eq!(e.programs.len(), e.latencies.len());
            assert!(e.latencies.iter().all(|&l| l > 0.0 && l.is_finite()));
            assert!(e.optimum() <= e.latencies[0]);
        }
    }

    #[test]
    fn split_is_disjoint_by_task() {
        let ds = tiny_dataset();
        let (train, test) = ds.split(0.7, 3);
        let train_tasks: std::collections::HashSet<usize> =
            train.iter().map(|s| s.task_id).collect();
        let test_tasks: std::collections::HashSet<usize> =
            test.iter().map(|s| s.task_id).collect();
        assert!(train_tasks.is_disjoint(&test_tasks));
        assert_eq!(train.len() + test.len(), ds.num_programs());
    }

    #[test]
    fn truncation_limits_per_entry() {
        let ds = tiny_dataset();
        let cut = ds.truncated(5);
        assert!(cut.entries.iter().all(|e| e.programs.len() <= 5));
        assert_eq!(cut.entries.len(), ds.entries.len());
    }

    #[test]
    fn json_roundtrip() {
        let ds = tiny_dataset();
        let dir = std::env::temp_dir().join("pruner-dataset-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t4.json");
        ds.save_json(&path).unwrap();
        let loaded = Dataset::load_json(&path).unwrap();
        assert_eq!(loaded.platform, ds.platform);
        assert_eq!(loaded.num_programs(), ds.num_programs());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn from_measurements_groups_by_workload_in_first_seen_order() {
        let mm = Workload::matmul(1, 64, 64, 64);
        let red = Workload::reduction(128, 256);
        let ds = Dataset::from_measurements(
            "NVIDIA T4",
            vec![
                (Program::fallback(&mm), 1.0e-3),
                (Program::fallback(&red), 2.0e-3),
                (Program::fallback(&mm), 0.5e-3),
            ],
        );
        assert_eq!(ds.platform, "NVIDIA T4");
        assert_eq!(ds.entries.len(), 2);
        assert_eq!(ds.entries[0].workload.key(), mm.key());
        assert_eq!(ds.entries[0].latencies, vec![1.0e-3, 0.5e-3]);
        assert_eq!(ds.entries[1].latencies, vec![2.0e-3]);
        assert_eq!(ds.to_samples().len(), 3);
    }

    #[test]
    fn table1_networks_match_paper_list() {
        let names: Vec<String> =
            table1_networks().iter().map(|n| n.name().to_string()).collect();
        assert_eq!(names.len(), 5);
        assert!(names[0].contains("resnet50"));
        assert!(names[2].contains("r3d18"));
    }
}
