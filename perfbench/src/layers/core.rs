//! Adapter for `ntt-core` (layer `core`): RNS rings and polynomials, the
//! CPU engine, and the backend-generic evaluator both substrates run
//! through.

use crate::report::Rng;
use ntt_core::backend::{Evaluator, NttBackend};
use ntt_core::{CpuBackend, ThreadPolicy};

pub use ntt_core::{RnsPoly as Poly, RnsRing as Ring};

/// The ring `Z_Q[X]/(X^N + 1)` over `np` NTT primes of `prime_bits` bits.
pub fn ring(log_n: u32, prime_bits: u32, np: usize) -> Ring {
    let n = 1usize << log_n;
    Ring::new(n, super::math::ntt_primes(prime_bits, 2 * n as u64, np))
        .expect("benchmark ring builds")
}

/// A polynomial with uniform residues drawn from `rng`.
pub fn random_poly(ring: &Ring, rng: &mut Rng) -> Poly {
    let mut x = Poly::zero(ring);
    for (i, &p) in ring.basis().primes().iter().enumerate() {
        for v in x.row_mut(i) {
            *v = rng.below(p);
        }
    }
    x
}

/// `log2 Q`: the bits an exact residue-number result carries.
pub fn modulus_bits(ring: &Ring) -> f64 {
    ring.basis()
        .primes()
        .iter()
        .map(|&p| (p as f64).log2())
        .sum()
}

/// The CPU backend on the default thread policy.
pub fn cpu_backend() -> Box<dyn NttBackend> {
    Box::new(CpuBackend::new(ThreadPolicy::default()))
}

/// Every residue, host side (downloads a device-fresh copy first).
pub fn residues(p: &mut Poly) -> Vec<u64> {
    p.sync();
    p.flat().to_vec()
}

/// Threads the default CPU policy runs on this host.
pub fn default_threads() -> usize {
    ThreadPolicy::default().resolve(usize::MAX)
}

/// A transform engine over one backend.
pub struct Engine {
    ev: Evaluator,
}

impl Engine {
    /// The CPU engine, on the default thread policy or on one thread.
    pub fn cpu(ring: &Ring, one_thread: bool) -> Self {
        if one_thread {
            Self::with_backend(ring, Box::new(CpuBackend::new(ThreadPolicy::Single)))
        } else {
            Self::with_backend(ring, cpu_backend())
        }
    }

    pub fn with_backend(ring: &Ring, backend: Box<dyn NttBackend>) -> Self {
        Engine {
            ev: Evaluator::with_backend(ring, backend),
        }
    }

    /// Move `p` to the backend's memory (a no-op on the CPU).
    pub fn upload(&mut self, p: &mut Poly) {
        self.ev.make_resident(p);
    }

    pub fn forward(&mut self, p: &mut Poly) {
        self.ev.to_evaluation(p);
    }

    pub fn inverse(&mut self, p: &mut Poly) {
        self.ev.to_coefficient(p);
    }
}

/// The pointwise reduction a plan over `ring` chooses for each distinct
/// prime size, e.g. `59-bit:montgomery`.
pub fn pointwise_verdicts(ring: &Ring) -> String {
    let mut v: Vec<String> = ring
        .plan()
        .strategies()
        .iter()
        .map(|s| format!("{}-bit:{}", 64 - s.modulus().leading_zeros(), s.name()))
        .collect();
    v.dedup();
    v.join(",")
}
