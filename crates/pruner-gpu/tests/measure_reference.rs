//! Bit-for-bit reference for the simulator's measurement path.
//!
//! The golden campaigns run without faults, so on their own they pin only
//! the clean branch of `Simulator::try_measure`. This test folds every
//! `(mean_s, variance)` bit pattern, or the fault kind, of
//! `Simulator::measure_dist` and `Simulator::try_measure` over a fixed grid
//! into one FNV-1a-64 digest:
//!
//! - one workload per sketch kind (matmul, conv2d, depthwise conv2d,
//!   elementwise, reduction), a few sampled programs each;
//! - 1, 3 and 100 repeats;
//! - no fault model, and `FaultModel::from_rate(_, 0.25)`, which hits the
//!   clean, fault and outlier branches (the test counts each).
//!
//! `REFERENCE` was captured at commit `3a1932a`, where `measure_dist` still
//! re-derived the latency, the program key and the noise distribution on
//! every repeat. It is a fixed constant: there is no regenerate path, and it
//! must never be re-derived from a later build. A change that moves it has
//! changed what the simulator measures.

use pruner_gpu::{FaultKind, FaultModel, GpuSpec, Measurement, Simulator};
use pruner_ir::{EwKind, Workload};
use pruner_sketch::{HardwareLimits, Program};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const REFERENCE: u64 = 0xc500_858d_56e8_8538;

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

    fn measurement(&mut self, m: &Measurement) {
        self.bytes(&[0]);
        self.bytes(&m.mean_s.to_bits().to_le_bytes());
        self.bytes(&m.variance.to_bits().to_le_bytes());
    }

    fn fault(&mut self, kind: FaultKind) {
        self.bytes(&[1]);
        self.bytes(kind.label().as_bytes());
    }
}

fn programs() -> Vec<Program> {
    let limits = HardwareLimits::default();
    let mut out = Vec::new();
    for (i, wl) in [
        Workload::matmul(1, 512, 512, 512),
        Workload::conv2d(1, 64, 56, 56, 64, 3, 1, 1),
        Workload::dwconv2d(1, 96, 56, 56, 3, 1, 1),
        Workload::elementwise(EwKind::Relu, 1 << 20),
        Workload::reduction(2048, 768),
    ]
    .into_iter()
    .enumerate()
    {
        let mut rng = ChaCha8Rng::seed_from_u64(0x4D45_4153 + i as u64);
        out.extend((0..4).map(|_| Program::sample(&wl, &limits, &mut rng)));
    }
    out
}

#[test]
fn measurements_match_the_reference_digest() {
    let clean = Simulator::new(GpuSpec::t4());
    let mut faulty = Simulator::new(GpuSpec::t4());
    faulty.set_fault_model(Some(FaultModel::from_rate(0xFA17, 0.25)));

    let mut digest = Fnv::new();
    let (mut ok, mut faults, mut outliers) = (0, 0, 0);
    for prog in &programs() {
        for repeats in [1, 3, 100] {
            for nonce in 0..6 {
                let dist = clean.measure_dist(prog, nonce, repeats);
                digest.measurement(&dist);
                // Without a fault model the attempt is the clean distribution.
                assert_eq!(clean.try_measure(prog, nonce, repeats), Ok(dist));
                match faulty.try_measure(prog, nonce, repeats) {
                    Ok(m) => {
                        if m == dist {
                            ok += 1;
                        } else {
                            outliers += 1;
                        }
                        digest.measurement(&m);
                    }
                    Err(kind) => {
                        faults += 1;
                        digest.fault(kind);
                    }
                }
            }
        }
    }
    assert!(
        ok > 0 && faults > 0 && outliers > 0,
        "branches hit: {ok} clean, {faults} faults, {outliers} outliers"
    );
    assert_eq!(
        digest.0, REFERENCE,
        "measurement digest {:#018x} differs from the reference captured at 3a1932a",
        digest.0
    );
}
