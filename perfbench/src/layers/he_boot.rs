//! Adapter for `he-boot` (layer `he-boot`): the deep bootstrapping
//! parameters and the bootstrapper, with a dense slot matrix so outputs
//! decrypt.

use super::he::{Ciphertext, He, Params, RotationKeys};
use he_boot::{BootParams, Bootstrapper};
use he_lite::sampling;
use std::sync::Arc;

/// `BootParams::deep()` scheme parameters (21 levels of 50-bit primes) at
/// ring degree `2^log_n`.
pub fn deep_params(log_n: u32) -> Params {
    BootParams::deep().he_params(log_n, 50)
}

pub struct Boot(Bootstrapper);

impl Boot {
    /// Rotation keys from `seed` and every DFT diagonal, on `he`'s backend.
    pub fn new(he: &He, seed: u64) -> Self {
        Boot(Bootstrapper::new(
            Arc::clone(&he.ctx),
            &he.keys,
            BootParams::deep(),
            &mut sampling::seeded_rng(seed),
        ))
    }

    /// The same engine on `he`'s backend, adopting `from`'s rotation keys.
    pub fn adopting(he: &He, from: &Boot) -> Self {
        let rot = he.ctx.adopt_rotation_keys(from.0.rotation_keys());
        let slots = he.ctx.params().n() / 2;
        Boot(Bootstrapper::with_rotation_keys(
            Arc::clone(&he.ctx),
            &he.keys,
            BootParams::deep(),
            slots,
            rot,
        ))
    }

    /// The scale a level-1 input must be encoded at.
    pub fn input_scale(&self) -> f64 {
        self.0.input_scale()
    }

    pub fn bootstrap(&self, ct: &Ciphertext) -> Ciphertext {
        self.0.bootstrap(ct)
    }

    pub fn rotation_keys(&self) -> &RotationKeys {
        self.0.rotation_keys()
    }
}
