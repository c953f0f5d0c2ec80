//! Saving and loading trained cost models.
//!
//! Pre-trained models are the unit of cross-platform transfer (the paper's
//! "pre-trained on the NVIDIA K80-6M dataset" artifact). These helpers
//! serialize any of the concrete model types (`PacmModel`,
//! `TensetMlpModel`, `TlpModel`, `AnsorModel`, `XgbModel`) to JSON and
//! back. Optimizer state (Adam moments and step count) rides along — the
//! campaign checkpointer needs it for byte-identical resume — but files
//! written without it still load, falling back to fresh moments. Tensors
//! are written as hex strings of their `f32` bits ([`crate::nn::Tensor`]);
//! files from earlier builds, whose tensors are decimal arrays, still load.
//!
//! # Example
//!
//! ```no_run
//! use pruner::cost::PacmModel;
//! use pruner::model_io;
//!
//! let model = PacmModel::new(0);
//! model_io::save_json(&model, "pacm-k80.json")?;
//! let restored: PacmModel = model_io::load_json("pacm-k80.json")?;
//! # Ok::<(), std::io::Error>(())
//! ```

use serde::de::DeserializeOwned;
use serde::Serialize;
use std::io;
use std::path::Path;

/// Serializes a model (or any serializable artifact) to pretty JSON,
/// written atomically and durably ([`crate::durable::write_atomic_durable`]).
///
/// # Errors
/// Propagates filesystem and serialization errors.
pub fn save_json<T: Serialize>(value: &T, path: impl AsRef<Path>) -> io::Result<()> {
    let json = serde_json::to_string_pretty(value)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    pruner_durable::write_atomic_durable(path.as_ref(), &json, None)
}

/// Loads a model saved by [`save_json`].
///
/// # Errors
/// Propagates filesystem and deserialization errors.
pub fn load_json<T: DeserializeOwned>(path: impl AsRef<Path>) -> io::Result<T> {
    let file = std::fs::File::open(path)?;
    serde_json::from_reader(io::BufReader::new(file))
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CostModel, PacmModel, Sample, TensetMlpModel, XgbModel};
    use crate::gpu::{GpuSpec, Simulator};
    use crate::ir::Workload;
    use crate::nn::{Mlp, Module, Tensor};
    use crate::sketch::Program;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn samples(n: usize) -> Vec<Sample> {
        let sim = Simulator::new(GpuSpec::t4());
        let limits = GpuSpec::t4().limits();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let wl = Workload::matmul(1, 256, 256, 256);
        (0..n)
            .map(|_| {
                let p = Program::sample(&wl, &limits, &mut rng);
                let lat = sim.latency(&p);
                Sample::labeled(&p, lat, 0)
            })
            .collect()
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("pruner-model-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn pacm_roundtrip_preserves_predictions() {
        let data = samples(24);
        let mut model = PacmModel::new(3);
        model.fit_batch(&data, 8, 1);
        let path = tmp("pacm.json");
        save_json(&model, &path).unwrap();
        let restored: PacmModel = load_json(&path).unwrap();
        assert_eq!(model.predict_batch(&data, 1), restored.predict_batch(&data, 1));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn tenset_and_xgb_roundtrip() {
        let data = samples(24);
        let mut m1 = TensetMlpModel::new(3);
        m1.fit_batch(&data, 5, 1);
        let p1 = tmp("tenset.json");
        save_json(&m1, &p1).unwrap();
        let r1: TensetMlpModel = load_json(&p1).unwrap();
        assert_eq!(m1.predict_batch(&data, 1), r1.predict_batch(&data, 1));

        let mut m2 = XgbModel::new();
        m2.fit_batch(&data, 1, 1);
        let p2 = tmp("xgb.json");
        save_json(&m2, &p2).unwrap();
        let r2: XgbModel = load_json(&p2).unwrap();
        assert_eq!(m2.predict_batch(&data, 1), r2.predict_batch(&data, 1));
        std::fs::remove_file(p1).ok();
        std::fs::remove_file(p2).ok();
    }

    /// A model file as builds before the bit-string tensor encoding wrote
    /// it: a one-layer `Mlp` after one Adam step, every tensor's data a
    /// decimal array.
    const LEGACY_MLP: &str = r#"{"layers":[{"w":{"value":{"rows":2,"cols":1,"data":[-1.4226480722427368,-0.5352320671081543]},"grad":{"rows":2,"cols":1,"data":[0.5,-0.25]},"m":{"rows":2,"cols":1,"data":[0.050000011920928955,-0.025000005960464478]},"v":{"rows":2,"cols":1,"data":[0.00024999678134918213,6.249919533729553e-5]}},"b":{"value":{"rows":1,"cols":1,"data":[-0.009999999776482582]},"grad":{"rows":1,"cols":1,"data":[0.5]},"m":{"rows":1,"cols":1,"data":[0.050000011920928955]},"v":{"rows":1,"cols":1,"data":[0.00024999678134918213]}}}]}"#;

    #[test]
    fn legacy_decimal_model_file_still_loads() {
        let path = tmp("legacy-mlp.json");
        std::fs::write(&path, LEGACY_MLP).unwrap();
        let mut mlp: Mlp = load_json(&path).unwrap();
        let params = mlp.params_mut();
        let widened = |p: &Tensor| p.as_slice().iter().map(|&v| f64::from(v)).collect::<Vec<_>>();
        assert_eq!(widened(&params[0].value), [-1.4226480722427368, -0.5352320671081543]);
        assert_eq!(widened(&params[0].v), [0.00024999678134918213, 6.249919533729553e-5]);
        assert_eq!(widened(&params[1].m), [0.050000011920928955]);

        // Saved again, it takes the one current form and reads back bit-exact.
        save_json(&mlp, &path).unwrap();
        let resaved = std::fs::read_to_string(&path).unwrap();
        assert!(resaved.contains(r#""data": "bfb61955"#), "{resaved}");
        assert!(!resaved.contains(r#""data": ["#), "{resaved}");
        let again: Mlp = load_json(&path).unwrap();
        assert_eq!(serde_json::to_string(&again).unwrap(), serde_json::to_string(&mlp).unwrap());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn load_missing_file_errors() {
        let r: io::Result<PacmModel> = load_json("/definitely/not/here.json");
        assert!(r.is_err());
    }
}
