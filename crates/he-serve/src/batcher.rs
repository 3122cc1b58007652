//! Runs each dispatch group of the server through [`HeContext`]'s group
//! forms.
//!
//! Every dispatch group the server drains lands here, where `k` jobs of
//! one kind (and level) go through **one** call:
//! [`HeContext::encrypt_group`], [`HeContext::multiply_plain_group`] or
//! [`HeContext::decrypt_group`]. Each is one multi-polynomial evaluator
//! op per pipeline stage, and the [`Batcher`] hands them host copies of
//! the keys and of the incoming ciphertexts, so every stage is one host
//! batch for the whole group on any backend. On a staging backend that
//! amortizes the per-call upload/download round trip and per-kernel
//! launch overhead across the group — the request-level analogue of the
//! residue-parallel batching the NTT kernels already do within one
//! polynomial. The math is the context's own: a group of one is
//! [`HeContext::encrypt`], [`HeContext::multiply_plain`] or
//! [`HeContext::decrypt`] on host operands.
//!
//! Each request kind has one pipeline, which runs on whatever evaluator
//! it is handed: the server arms its checkout
//! ([`HeContext::try_with_pooled_evaluator`]) so device faults come back
//! as a classified error, or runs its CPU fallback; tests and benchmarks
//! may run it unarmed.
//!
//! Results are bit-identical to per-job dispatch by construction: NTT,
//! pointwise and rescale rows are independent (a batch's row `r` is
//! reduced mod its own prime, whatever the row count), and every other
//! step is exact host arithmetic. Each job's encryption randomness is
//! seeded from [`job_seed`], never from batch position, so the answer a
//! tenant gets does not depend on who else happened to share the batch.

use crate::request::TenantId;
use he_lite::{sampling, Ciphertext, HeContext, KeySet, Plaintext, PublicKey, SecretKey};
use ntt_core::backend::Evaluator;

/// One encryption job: explicit randomness seed plus the values to
/// encode. The server derives the seed from the submitting tenant and
/// its per-tenant sequence number; tests pass seeds directly.
#[derive(Debug, Clone)]
pub struct EncryptJob {
    /// Seeds the ternary/error sampling for this job.
    pub seed: u64,
    /// Real values to encode and encrypt (≤ N of them).
    pub values: Vec<f64>,
}

/// Deterministic per-job randomness seed: a splitmix-style hash of the
/// server's seed domain, the tenant id and the tenant-local sequence
/// number. Two jobs never share a seed, and a job's seed — hence its
/// ciphertext bits — is independent of batch composition and worker
/// interleaving.
pub fn job_seed(domain: u64, tenant: TenantId, seq: u64) -> u64 {
    let mut z = domain ^ (u64::from(tenant.0) << 32) ^ seq.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The batched executor: host copies of the public and secret keys,
/// plus one pipeline per request kind.
pub struct Batcher {
    public: PublicKey,
    secret: SecretKey,
}

impl Batcher {
    /// Snapshot host copies of the keys the pipelines use.
    pub fn new(keys: &KeySet) -> Self {
        let (mut public, mut secret) = (keys.public.clone(), keys.secret.clone());
        public.evict_device();
        secret.evict_device();
        Batcher { public, secret }
    }

    /// Encrypt `jobs.len()` value vectors as one
    /// [`HeContext::encrypt_group`] under the host public key: two host
    /// batches in all. Per-job randomness comes from
    /// [`EncryptJob::seed`] and the jobs are borrowed immutably, so a
    /// retry after a fault yields bit-identical results.
    pub fn encrypt_batch(
        &self,
        ctx: &HeContext,
        ev: &mut Evaluator,
        jobs: &[EncryptJob],
    ) -> Vec<Ciphertext> {
        let pts: Vec<Plaintext> = jobs.iter().map(|job| ctx.encode(&job.values)).collect();
        let mut group: Vec<_> = pts
            .iter()
            .zip(jobs)
            .map(|(pt, job)| (pt, sampling::seeded_rng(job.seed)))
            .collect();
        ctx.encrypt_group(ev, &self.public, &mut group)
    }

    /// Weighted plaintext multiply + rescale of host copies of a group of
    /// ciphertexts sharing one level, as one
    /// [`HeContext::multiply_plain_group`] by the encoded weights: four
    /// host batches in all. Only this call's own copies are written, so
    /// re-running the identical batch after a fault yields bit-identical
    /// results.
    ///
    /// # Panics
    ///
    /// Panics if the group mixes levels or any ciphertext is at level 1
    /// (nothing left to rescale into) — the server validates both at
    /// submit and groups by level.
    pub fn eval_batch(
        &self,
        ctx: &HeContext,
        ev: &mut Evaluator,
        mut jobs: Vec<(Ciphertext, Vec<f64>)>,
    ) -> Vec<Ciphertext> {
        let pts: Vec<Plaintext> = jobs
            .iter_mut()
            .map(|(ct, weights)| {
                ct.evict_device();
                ctx.encode(weights)
            })
            .collect();
        let group: Vec<(&Ciphertext, &Plaintext)> =
            jobs.iter().map(|(ct, _)| ct).zip(&pts).collect();
        ctx.multiply_plain_group(ev, &group)
    }

    /// Decrypt host copies of a group of ciphertexts sharing one level
    /// under the host secret key, as one [`HeContext::decrypt_group`]:
    /// two host batches in all. Decode the plaintexts with
    /// [`HeContext::decode`] only once the checkout that ran this
    /// returned `Ok`.
    ///
    /// # Panics
    ///
    /// Panics if the group mixes levels.
    pub fn decrypt_batch(
        &self,
        ctx: &HeContext,
        ev: &mut Evaluator,
        mut cts: Vec<Ciphertext>,
    ) -> Vec<Plaintext> {
        for ct in &mut cts {
            ct.evict_device();
        }
        ctx.decrypt_group(ev, &self.secret, &cts.iter().collect::<Vec<_>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use he_lite::HeLiteParams;

    fn ctx() -> HeContext {
        HeContext::new(HeLiteParams {
            log_n: 5,
            prime_bits: 50,
            levels: 3,
            scale_bits: 40,
            gadget_bits: 10,
            error_eta: 4,
        })
        .expect("demo params are valid")
    }

    #[test]
    fn job_seeds_are_distinct_and_stable() {
        let a = job_seed(7, TenantId(1), 0);
        assert_eq!(a, job_seed(7, TenantId(1), 0), "seed is deterministic");
        assert_ne!(a, job_seed(7, TenantId(1), 1));
        assert_ne!(a, job_seed(7, TenantId(2), 0));
        assert_ne!(a, job_seed(8, TenantId(1), 0));
    }

    #[test]
    fn batched_chain_round_trips_values() {
        let ctx = ctx();
        let mut rng = sampling::seeded_rng(41);
        let keys = ctx.keygen(&mut rng);
        let batcher = Batcher::new(&keys);

        let jobs: Vec<EncryptJob> = (0..3)
            .map(|j| EncryptJob {
                seed: job_seed(7, TenantId(j), 0),
                values: vec![1.5 + j as f64, -2.0],
            })
            .collect();
        let (cts, outs) = ctx.with_pooled_evaluator(|ev| {
            let cts = batcher.encrypt_batch(&ctx, ev, &jobs);
            // A constant weight polynomial scales every coefficient
            // (coefficient encoding: eval is a negacyclic poly product).
            let evald = batcher.eval_batch(
                &ctx,
                ev,
                cts.iter().map(|ct| (ct.clone(), vec![2.0])).collect(),
            );
            let outs = batcher.decrypt_batch(&ctx, ev, evald.clone());
            (evald, outs)
        });
        assert_eq!(cts[0].level(), ctx.params().levels - 1, "eval rescaled");
        for (j, out) in outs.iter().enumerate() {
            let want = [(1.5 + j as f64) * 2.0, -4.0];
            for (got, want) in ctx.decode(out).iter().zip(want) {
                assert!((got - want).abs() < 1e-2, "decrypted {got}, wanted {want}");
            }
        }
    }
}
