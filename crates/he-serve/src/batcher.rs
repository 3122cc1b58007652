//! Runs each dispatch group of the server as one group of the
//! [`Evaluator`]'s multi-polynomial ops.
//!
//! Every dispatch group the server drains lands here, where `k` jobs of
//! one kind (and level) go through **one** call per pipeline stage
//! instead of `k`: [`Evaluator::forward_polys`],
//! [`Evaluator::mul_pointwise_polys`], [`Evaluator::rescale_polys`] and
//! [`Evaluator::inverse_polys`] put the host polynomials of a group in
//! one host batch each. On a staging backend that amortizes the per-call
//! upload/download round trip and per-kernel launch overhead across the
//! whole group — the request-level analogue of the residue-parallel
//! batching the NTT kernels already do within one polynomial. The
//! formulas are [`HeContext`]'s encrypt, plaintext multiply + rescale
//! and decrypt, over host copies of the inputs.
//!
//! Each request kind has one pipeline, which runs on whatever evaluator
//! it is handed: the server arms its checkout
//! ([`HeContext::try_with_pooled_evaluator`]) so device faults come back
//! as a classified error, tests and benchmarks may run it unarmed.
//!
//! Results are bit-identical to per-job dispatch by construction: NTT,
//! pointwise and rescale rows are independent (a batch's row `r` is
//! reduced mod its own prime, whatever the row count), and every other
//! step is exact host arithmetic. Each job's encryption randomness is
//! seeded from [`job_seed`], never from batch position, so the answer a
//! tenant gets does not depend on who else happened to share the batch.

use crate::request::TenantId;
use he_lite::{sampling, Ciphertext, HeContext, KeySet, Plaintext};
use ntt_core::backend::Evaluator;
use ntt_core::poly::RnsPoly;

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

/// A host copy of `p`: synced, with any device mirror dropped, so a
/// group's polynomials share host batches whatever backend the context
/// runs.
fn host_copy(p: &RnsPoly) -> RnsPoly {
    let mut c = p.clone();
    c.evict_device();
    c
}

/// The batched executor: host copies of the key material plus one
/// pipeline per request kind.
pub struct Batcher {
    pk_b: RnsPoly,
    pk_a: RnsPoly,
    sk_eval: RnsPoly,
}

impl Batcher {
    /// Snapshot the key material needed by the pipelines: host copies of
    /// the public key halves and the secret key's evaluation form.
    pub fn new(keys: &KeySet) -> Self {
        let (b, a) = keys.public.halves();
        Batcher {
            pk_b: host_copy(b),
            pk_a: host_copy(a),
            sk_eval: host_copy(keys.secret.eval_poly()),
        }
    }

    /// Encrypt `jobs.len()` value vectors in two backend calls total, as
    /// [`HeContext::encrypt`] does one: one [`Evaluator::forward_polys`]
    /// over all `4k` sampled/encoded polynomials (`u, e0, e1, m` per
    /// job), one [`Evaluator::mul_pointwise_polys`] over all `2k`
    /// public-key products (`b·u`, `a·u` per job), then host adds. The
    /// job inputs are borrowed immutably and per-job randomness comes
    /// from [`EncryptJob::seed`], so a retry after a fault yields
    /// bit-identical results.
    pub fn encrypt_batch(
        &self,
        ctx: &HeContext,
        ev: &mut Evaluator,
        jobs: &[EncryptJob],
    ) -> Vec<Ciphertext> {
        let ring = ctx.ring();
        let eta = ctx.params().error_eta;
        // Per job [u, e0, e1, m], back to back.
        let mut samples = Vec::with_capacity(4 * jobs.len());
        let mut scales = Vec::with_capacity(jobs.len());
        for job in jobs {
            let mut rng = sampling::seeded_rng(job.seed);
            samples.push(sampling::ternary_poly(ring, &mut rng));
            samples.push(sampling::error_poly(ring, eta, &mut rng));
            samples.push(sampling::error_poly(ring, eta, &mut rng));
            let pt = ctx.encode(&job.values);
            scales.push(pt.scale());
            samples.push(pt.poly().clone());
        }
        ev.forward_polys(&mut samples.iter_mut().collect::<Vec<_>>());

        // c0 = b·u + e0 + m, c1 = a·u + e1 — evaluation form throughout.
        let us: Vec<&RnsPoly> = samples.chunks_exact(4).map(|s| &s[0]).collect();
        let mut c0s = vec![self.pk_b.clone(); jobs.len()];
        let mut c1s = vec![self.pk_a.clone(); jobs.len()];
        let mut pairs: Vec<(&mut RnsPoly, &RnsPoly)> = c0s
            .iter_mut()
            .chain(&mut c1s)
            .zip(us.iter().chain(&us).copied())
            .collect();
        ev.mul_pointwise_polys(&mut pairs);
        c0s.into_iter()
            .zip(c1s)
            .zip(samples.chunks_exact(4).zip(scales))
            .map(|((mut c0, mut c1), (s, scale))| {
                ev.add_assign(&mut c0, &s[1]);
                ev.add_assign(&mut c0, &s[3]);
                ev.add_assign(&mut c1, &s[2]);
                Ciphertext::from_parts(c0, c1, scale)
            })
            .collect()
    }

    /// Weighted plaintext multiply + rescale for a group of ciphertexts
    /// sharing one level, as [`HeContext::multiply_plain`] does one, in
    /// four backend calls total: [`Evaluator::forward_polys`] over the `k`
    /// encoded weight polynomials, [`Evaluator::mul_pointwise_polys`]
    /// over the `2k` ciphertext halves, and the evaluation-domain
    /// [`Evaluator::rescale_polys`] of all `2k` halves — one inverse of
    /// their dropped rows, one forward of the lifted rows. Only this
    /// call's own copies are written, so re-running the identical batch
    /// after a fault yields bit-identical results.
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
        jobs: Vec<(Ciphertext, Vec<f64>)>,
    ) -> Vec<Ciphertext> {
        let Some(level) = jobs.first().map(|(ct, _)| ct.level()) else {
            return Vec::new();
        };
        assert!(level >= 2, "no prime left to rescale into");
        let mut weights = Vec::with_capacity(jobs.len());
        let (mut c0s, mut c1s) = (Vec::new(), Vec::new());
        let mut scales = Vec::with_capacity(jobs.len());
        for (ct, w) in &jobs {
            assert_eq!(ct.level(), level, "eval group mixes levels");
            let pt = ctx.encode(w);
            scales.push(ct.scale() * pt.scale());
            weights.push(pt.poly().truncated(level));
            let (c0, c1) = ct.components();
            c0s.push(host_copy(c0));
            c1s.push(host_copy(c1));
        }
        ev.forward_polys(&mut weights.iter_mut().collect::<Vec<_>>());
        let mut pairs: Vec<(&mut RnsPoly, &RnsPoly)> = c0s
            .iter_mut()
            .chain(&mut c1s)
            .zip(weights.iter().chain(&weights))
            .collect();
        ev.mul_pointwise_polys(&mut pairs);
        ev.rescale_polys(&mut c0s.iter_mut().chain(&mut c1s).collect::<Vec<_>>());

        let p_last = ctx.ring().basis().primes()[level - 1] as f64;
        c0s.into_iter()
            .zip(c1s)
            .zip(scales)
            .map(|((c0, c1), scale)| Ciphertext::from_parts(c0, c1, scale / p_last))
            .collect()
    }

    /// Decrypt a group of ciphertexts sharing one level, as
    /// [`HeContext::decrypt`] does one, in two backend calls total:
    /// [`Evaluator::mul_pointwise_polys`] over the `k` products `c1·s`,
    /// a host add of each `c0`, and [`Evaluator::inverse_polys`] over the
    /// `k` sums. Returns one coefficient-form plaintext per job, to
    /// decode with [`HeContext::decode`] once the checkout that ran this
    /// returned `Ok`: after a latched fault the rows are stale, and stale
    /// residues need not even fit the decoder's centered range.
    ///
    /// # Panics
    ///
    /// Panics if the group mixes levels.
    pub fn decrypt_batch(
        &self,
        _ctx: &HeContext,
        ev: &mut Evaluator,
        cts: Vec<Ciphertext>,
    ) -> Vec<Plaintext> {
        let Some(level) = cts.first().map(Ciphertext::level) else {
            return Vec::new();
        };
        let s = self.sk_eval.truncated(level);
        let (c0s, mut ms): (Vec<RnsPoly>, Vec<RnsPoly>) = cts
            .iter()
            .map(|ct| {
                assert_eq!(ct.level(), level, "decrypt group mixes levels");
                let (c0, c1) = ct.components();
                (host_copy(c0), host_copy(c1))
            })
            .unzip();
        let mut pairs: Vec<(&mut RnsPoly, &RnsPoly)> = ms.iter_mut().map(|m| (m, &s)).collect();
        ev.mul_pointwise_polys(&mut pairs);
        for (m, c0) in ms.iter_mut().zip(&c0s) {
            ev.add_assign(m, c0);
        }
        ev.inverse_polys(&mut ms.iter_mut().collect::<Vec<_>>());
        ms.into_iter()
            .zip(&cts)
            .map(|(m, ct)| Plaintext::from_parts(m, ct.scale()))
            .collect()
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
