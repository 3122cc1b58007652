//! Plaintexts and ciphertexts.
//!
//! On residency-preferring backends (see
//! [`crate::HeContext::is_resident`]) ciphertext polynomials live in
//! device memory between operations; the host copies are stale until an
//! explicit sync point. [`Ciphertext::sync`] / [`Plaintext::sync`] are
//! those sync points for direct component access — decrypt/decode sync
//! implicitly. [`Ciphertext::evict_device`] makes a ciphertext host-only,
//! and the context's ops keep a host-only ciphertext on the host.

use ntt_core::poly::{Residency, RnsPoly};

/// An encoded (but not encrypted) message: scaled integer coefficients in
/// RNS coefficient form, tagged with the fixed-point scale.
///
/// Equality compares the polynomials' host rows and the scale; sync
/// device-resident plaintexts first.
#[derive(Debug, Clone, PartialEq)]
pub struct Plaintext {
    pub(crate) m: RnsPoly,
    pub(crate) scale: f64,
}

impl Plaintext {
    /// The fixed-point scale this plaintext was encoded with.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Active prime count.
    pub fn level(&self) -> usize {
        self.m.level()
    }

    /// Borrow the underlying RNS polynomial.
    pub fn poly(&self) -> &RnsPoly {
        &self.m
    }

    /// Download the polynomial if its fresh copy is on the device (no-op
    /// otherwise), so [`Plaintext::poly`] reads see current values.
    pub fn sync(&mut self) {
        self.m.sync();
    }
}

/// A CKKS-style ciphertext: the pair `(c0, c1)` in evaluation form, such
/// that `c0 + c1·s ≈ scale · message (mod Q_level)`.
#[derive(Debug, Clone)]
pub struct Ciphertext {
    pub(crate) c0: RnsPoly,
    pub(crate) c1: RnsPoly,
    pub(crate) scale: f64,
}

impl Ciphertext {
    /// Active prime count (decreases by one per rescale).
    pub fn level(&self) -> usize {
        self.c0.level()
    }

    /// Current fixed-point scale.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Borrow the ciphertext components (evaluation form).
    ///
    /// For device-resident ciphertexts, call [`Ciphertext::sync`] first —
    /// host reads of stale components panic.
    pub fn components(&self) -> (&RnsPoly, &RnsPoly) {
        (&self.c0, &self.c1)
    }

    /// Explicit sync point: download both components if their fresh
    /// copies live on the device (two counted transfers; no-op for
    /// host-resident ciphertexts).
    pub fn sync(&mut self) {
        self.c0.sync();
        self.c1.sync();
    }

    /// Drop the components' device copies (downloading them first if
    /// they were the fresh ones): a host-only ciphertext, which the
    /// context's ops take through host batches on any backend.
    pub fn evict_device(&mut self) {
        self.c0.evict_device();
        self.c1.evict_device();
    }

    /// Where the ciphertext currently lives (the components always move
    /// together, so `c0`'s residency is the ciphertext's).
    pub fn residency(&self) -> Residency {
        self.c0.residency()
    }
}
