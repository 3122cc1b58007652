//! Plaintexts and ciphertexts.
//!
//! On residency-preferring backends (see
//! [`crate::HeContext::is_resident`]) ciphertext polynomials live in
//! device memory between operations; the host copies are stale until an
//! explicit sync point. [`Ciphertext::sync`] / [`Plaintext::sync`] are
//! those sync points for direct component access — decrypt/decode sync
//! implicitly.

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
    /// Assemble a plaintext from a polynomial and its fixed-point scale —
    /// the constructor layers above the scheme (request batchers) use
    /// after decrypting through their own batched dispatch.
    pub fn from_parts(m: RnsPoly, scale: f64) -> Self {
        Plaintext { m, scale }
    }

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
    /// Assemble a ciphertext from raw components — the constructor layers
    /// above the scheme (request batchers, serialization) use after
    /// producing `(c0, c1)` through their own batched dispatch.
    ///
    /// Both polynomials must be in evaluation form at the same level, and
    /// satisfy `c0 + c1·s ≈ scale · message (mod Q_level)`; nothing here
    /// can check the last invariant, so a bad pair simply decrypts to
    /// noise.
    ///
    /// # Panics
    ///
    /// Panics on level or representation mismatch between the halves.
    pub fn from_parts(c0: RnsPoly, c1: RnsPoly, scale: f64) -> Self {
        assert_eq!(c0.level(), c1.level(), "component level mismatch");
        assert_eq!(c0.repr(), c1.repr(), "component representation mismatch");
        Ciphertext { c0, c1, scale }
    }

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

    /// Where the ciphertext currently lives (the components always move
    /// together, so `c0`'s residency is the ciphertext's).
    pub fn residency(&self) -> Residency {
        self.c0.residency()
    }
}
