//! Bit-for-bit reference for a multi-task MTL campaign.
//!
//! `tests/golden` pins a fresh-PaCM matmul campaign and
//! `pacm_fit_reference` pins a one-group fit, but neither runs Momentum
//! Transfer Learning over several tasks. This test does: it pre-trains a
//! PaCM on a small simulated-K80 set of `bert_tiny` programs, then runs a
//! short MTL campaign on a simulated T4 over one task of every
//! `mobilenet_v2` operator class (convolution, depthwise convolution,
//! element-wise add, the classifier matmul and the pooling reduction).
//! Every training round fine-tunes the target on several LambdaRank
//! groups at once, and its statement rows span all those operator classes.
//! The campaign's result JSON and the bits of the final Siamese weights
//! are folded into one FNV-1a-64 digest.
//!
//! `REFERENCE` was captured at commit `c29eecc`, where PaCM's statement
//! encoder still ran its last layer as a separate `linear` and
//! `sum_groups` on the tape and `Adam::step` still indexed each slice per
//! element. It is a fixed constant: there is no regenerate path, and it
//! must never be re-derived from a later build. A change that moves it has
//! changed what MTL trains.

use pruner_cost::{PacmModel, Sample};
use pruner_gpu::{GpuSpec, Simulator};
use pruner_ir::{zoo, Workload};
use pruner_nn::Module;
use pruner_sketch::Program;
use pruner_tuner::{pretrain_pacm, ModelSetup, Tuner, TunerConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const REFERENCE: u64 = 0x233a_10ab_e663_7e49;

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// A few sampled programs of every `bert_tiny` task, labeled by the
/// simulated K80.
fn k80_pretrained() -> PacmModel {
    let spec = GpuSpec::k80();
    let sim = Simulator::new(spec.clone());
    let limits = spec.limits();
    let mut rng = ChaCha8Rng::seed_from_u64(0x4D54_4C00);
    let mut samples = Vec::new();
    for (task, sg) in zoo::bert_tiny(1, 64).subgraphs().iter().enumerate() {
        for _ in 0..4 {
            let p = Program::sample(&sg.workload, &limits, &mut rng);
            samples.push(Sample::labeled(&p, sim.latency(&p), task));
        }
    }
    pretrain_pacm(&samples, 2, 3)
}

/// The first `mobilenet_v2` task of each operator class, weighted so that
/// every task's fallback schedule costs about as much as the slowest one:
/// the scheduler then spreads the rounds over several tasks instead of
/// spending them all on the heaviest.
fn tasks() -> Vec<(Workload, u64)> {
    let mut picked: Vec<Workload> = Vec::new();
    for sg in zoo::mobilenet_v2(1).subgraphs() {
        let class = std::mem::discriminant(&sg.workload);
        if picked.iter().all(|w| std::mem::discriminant(w) != class) {
            picked.push(sg.workload.clone());
        }
    }
    let sim = Simulator::new(GpuSpec::t4());
    let fallback: Vec<f64> = picked.iter().map(|w| sim.latency(&Program::fallback(w))).collect();
    let slowest = fallback.iter().cloned().fold(0.0, f64::max);
    picked.into_iter().zip(fallback).map(|(w, f)| (w, (slowest / f).round() as u64)).collect()
}

#[test]
fn mtl_campaign_matches_the_reference_digest() {
    let cfg = TunerConfig { rounds: 6, threads: 1, ..TunerConfig::quick() };
    let setup = ModelSetup::Mtl { pretrained: k80_pretrained(), momentum: 0.99 };
    let mut tuner = Tuner::new(GpuSpec::t4(), cfg, setup);
    for (wl, weight) in tasks() {
        tuner.add_task(wl, weight);
    }
    let result = tuner.run();
    let mut digest = Fnv::new();
    digest.bytes(serde_json::to_string(&result).expect("result serializes").as_bytes());
    let mtl = tuner.mtl().expect("an MTL campaign");
    assert_eq!(mtl.rounds(), cfg.rounds, "one MTL round per tuning round");
    let mut siamese = mtl.siamese().clone();
    for p in siamese.params_mut() {
        for v in p.value.as_slice() {
            digest.bytes(&v.to_bits().to_le_bytes());
        }
    }
    assert_eq!(
        digest.0, REFERENCE,
        "MTL campaign digest {:#018x} differs from the reference captured at c29eecc",
        digest.0
    );
}
