//! Key material: secret, public and relinearization keys.
//!
//! On residency-preferring backends, keygen uploads every key polynomial
//! once (part of the chain's initial upload); relinearization then reads
//! the key halves directly from device memory — key material never
//! crosses the bus again. A host copy ([`PublicKey::evict_device`],
//! [`SecretKey::evict_device`]) keeps the encryptions and decryptions it
//! runs in host batches instead.

use ntt_core::poly::RnsPoly;
use std::collections::BTreeMap;

/// The ternary secret `s`, kept in evaluation form at full level (with a
/// coefficient-form copy for diagnostics).
#[derive(Debug, Clone)]
pub struct SecretKey {
    /// `s` in evaluation (NTT) form, full level.
    pub(crate) s_eval: RnsPoly,
}

impl SecretKey {
    /// Drop the key's device copy (downloading it first if it was the
    /// fresh one): a host copy, whose decrypts run in host batches on
    /// any backend ([`crate::HeContext::decrypt_group`]).
    pub fn evict_device(&mut self) {
        self.s_eval.evict_device();
    }
}

/// Ring-LWE public key `(b, a)` with `b = -(a·s) + e`, evaluation form.
#[derive(Debug, Clone)]
pub struct PublicKey {
    /// `b = -(a·s) + e`.
    pub(crate) b: RnsPoly,
    /// Uniform `a`.
    pub(crate) a: RnsPoly,
}

impl PublicKey {
    /// Drop the key's device copies (downloading them first if they were
    /// the fresh ones): a host copy, whose encryptions run in host
    /// batches on any backend ([`crate::HeContext::encrypt_group`]).
    pub fn evict_device(&mut self) {
        self.b.evict_device();
        self.a.evict_device();
    }
}

/// One relinearization key entry: an encryption of `B^d · g_j · s²`.
#[derive(Debug, Clone)]
pub struct RelinEntry {
    pub(crate) b: RnsPoly,
    pub(crate) a: RnsPoly,
}

/// Relinearization keys for every level: `relin[level][j][digit]`.
///
/// The hybrid gadget is the RNS decomposition (index `j` over active
/// primes) tensored with a base-`2^w` digit decomposition (index `d`),
/// which keeps key-switching noise at `O(np · digits · 2^w)` — far below
/// the encoding scale.
#[derive(Debug, Clone)]
pub struct RelinKeys {
    /// `entries[level - 1][j][d]` relinearizes at that level.
    pub(crate) entries: Vec<Vec<Vec<RelinEntry>>>,
}

impl RelinKeys {
    /// Number of levels covered.
    pub fn levels(&self) -> usize {
        self.entries.len()
    }

    /// Total key-material entries (each is a pair of RNS polynomials).
    pub fn entry_count(&self) -> usize {
        self.entries
            .iter()
            .map(|l| l.iter().map(Vec::len).sum::<usize>())
            .sum()
    }
}

/// Rotation (Galois) keys: for each Galois element `g`, key-switch
/// material turning a `τ_g(s)`-ciphertext back into an `s`-ciphertext.
///
/// Storage is sparse on both axes: only the requested `g` values and only
/// the requested levels are generated (a bootstrap pipeline rotates at two
/// or three known levels, not all of them), so rotation-key memory is
/// `O(|gs| · |levels| · digits)` instead of `O(|gs| · levels²· digits)`.
/// Each per-level entry set has the same `entries[j][d]` hoisting-friendly
/// digit layout as [`RelinKeys`] — an encryption of `B^d · g_j · τ_g(s)`
/// — so rotations run the relinearization key switch (one batched digit
/// transform that decomposes as it loads, one FMA into both
/// accumulators) unchanged.
#[derive(Debug, Clone, Default)]
pub struct RotationKeys {
    /// `by_g[g][level][j][d]`; `g` stored reduced mod `2N`.
    pub(crate) by_g: BTreeMap<u64, BTreeMap<usize, Vec<Vec<RelinEntry>>>>,
}

impl RotationKeys {
    /// The Galois elements covered (reduced mod `2N`, sorted).
    pub fn galois_elements(&self) -> Vec<u64> {
        self.by_g.keys().copied().collect()
    }

    /// Whether key material exists for `(g, level)`.
    pub fn contains(&self, g: u64, level: usize) -> bool {
        self.by_g.get(&g).is_some_and(|m| m.contains_key(&level))
    }

    /// Total key-material entries (each is a pair of RNS polynomials).
    pub fn entry_count(&self) -> usize {
        self.by_g
            .values()
            .flat_map(BTreeMap::values)
            .map(|per_j| per_j.iter().map(Vec::len).sum::<usize>())
            .sum()
    }

    /// The `entries[j][d]` set for `(g, level)`, if generated.
    pub(crate) fn entries_for(&self, g: u64, level: usize) -> Option<&Vec<Vec<RelinEntry>>> {
        self.by_g.get(&g)?.get(&level)
    }
}

/// All keys produced by key generation.
#[derive(Debug, Clone)]
pub struct KeySet {
    /// The secret key (keep private).
    pub secret: SecretKey,
    /// The public encryption key.
    pub public: PublicKey,
    /// Relinearization keys for homomorphic multiplication.
    pub relin: RelinKeys,
}
