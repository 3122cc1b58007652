//! Adapter for `he-lite` (layer `he`): CKKS contexts, keys and the
//! homomorphic ops.

use he_lite::{sampling, HeContext, KeySet, Plaintext};
use ntt_core::backend::NttBackend;
use std::sync::Arc;

pub use he_lite::{Ciphertext, HeLiteParams as Params, RotationKeys};

/// A context and its key set.
pub struct He {
    pub ctx: Arc<HeContext>,
    pub keys: KeySet,
}

impl He {
    /// A context on `backend` with keys generated from `key_seed`.
    pub fn new(params: Params, backend: Box<dyn NttBackend>, key_seed: u64) -> Self {
        let ctx = Arc::new(HeContext::with_backend(params, backend).expect("context builds"));
        let keys = ctx.keygen(&mut sampling::seeded_rng(key_seed));
        He { ctx, keys }
    }

    /// A context on `backend` adopting `other`'s keys: the same key bits
    /// without paying host key generation twice.
    pub fn adopting(other: &He, backend: Box<dyn NttBackend>) -> Self {
        let ctx = Arc::new(
            HeContext::with_backend(*other.ctx.params(), backend).expect("context builds"),
        );
        let keys = ctx.adopt_keys(&other.keys);
        He { ctx, keys }
    }

    /// See [`super::core::pointwise_verdicts`].
    pub fn pointwise_verdicts(&self) -> String {
        super::core::pointwise_verdicts(self.ctx.ring())
    }

    pub fn top_level(&self) -> usize {
        self.ctx.params().levels
    }

    /// Encrypt `values` (coefficient encoding) at `scale`, or at the
    /// parameter scale when `None`, with randomness from `seed`.
    pub fn encrypt(&self, values: &[f64], scale: Option<f64>, seed: u64) -> Ciphertext {
        let pt = match scale {
            Some(s) => self.ctx.encode_with_scale(values, s),
            None => self.ctx.encode(values),
        };
        self.ctx
            .encrypt(&pt, &self.keys.public, &mut sampling::seeded_rng(seed))
    }

    pub fn decrypt(&self, ct: &Ciphertext) -> Vec<f64> {
        self.ctx.decode(&self.ctx.decrypt(ct, &self.keys.secret))
    }

    pub fn drop_to_level(&self, ct: &Ciphertext, level: usize) -> Ciphertext {
        self.ctx.drop_to_level(ct, level)
    }

    pub fn rotate(&self, ct: &Ciphertext, g: u64, rtk: &RotationKeys) -> Ciphertext {
        self.ctx.rotate(ct, g, rtk)
    }

    /// Relinearizing ciphertext product (tensor, key switch, rescale).
    pub fn multiply(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        self.ctx.multiply(a, b, &self.keys.relin)
    }

    /// `values` encoded, truncated to `level`, resident and transformed.
    pub fn prepared_plaintext(&self, values: &[f64], level: usize) -> Plaintext {
        self.ctx.prepare_plaintext(&self.ctx.encode(values), level)
    }

    /// Plaintext product without the rescale.
    pub fn multiply_plain_raw(&self, ct: &Ciphertext, pt: &Plaintext) -> Ciphertext {
        self.ctx.multiply_plain_raw(ct, pt)
    }

    /// Plaintext product with its rescale.
    pub fn multiply_plain(&self, ct: &Ciphertext, values: &[f64]) -> Ciphertext {
        self.ctx.multiply_plain(ct, &self.ctx.encode(values))
    }

    pub fn rescale(&self, ct: &mut Ciphertext) {
        self.ctx.rescale(ct);
    }

    pub fn mod_raise(&self, ct: &Ciphertext, to_level: usize) -> Ciphertext {
        self.ctx.mod_raise(ct, to_level)
    }

    /// Relinearization key entries (each a pair of RNS polynomials).
    pub fn relin_entries(&self) -> usize {
        self.keys.relin.entry_count()
    }
}

pub fn rotation_entries(rtk: &RotationKeys) -> usize {
    rtk.entry_count()
}

/// The Galois elements `rtk` covers.
pub fn galois_elements(rtk: &RotationKeys) -> Vec<u64> {
    rtk.galois_elements()
}

/// Both components' residues, host side.
pub fn bits(ct: &Ciphertext) -> Vec<u64> {
    let mut ct = ct.clone();
    ct.sync();
    let (c0, c1) = ct.components();
    [c0.flat(), c1.flat()].concat()
}
