//! Packs many small ciphertext operations into single flat backend calls.
//!
//! Every dispatch group the server drains lands here, where `k` jobs of
//! one kind (and level) execute through **one** `try_forward_flat` /
//! `try_pointwise_flat` / `try_inverse_flat` call per pipeline stage
//! instead of `k`. On a staging backend that amortizes the per-call upload/download
//! round trip and per-kernel launch overhead across the whole group —
//! the request-level analogue of the residue-parallel batching the NTT
//! kernels already do within one polynomial.
//!
//! Results are bit-identical to per-job dispatch by construction: NTT
//! and pointwise rows are independent (row `r` is reduced mod prime
//! `r % level`, whatever the row count), and every other step is exact
//! host arithmetic. Each job's encryption randomness is seeded from
//! [`job_seed`], never from batch position, so the answer a tenant gets
//! does not depend on who else happened to share the batch.

use crate::request::TenantId;
use he_lite::{sampling, Ciphertext, HeContext, KeySet};
use ntt_core::backend::{BackendError, Evaluator};
use ntt_core::poly::{Representation, RnsPoly, RnsRing};

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

/// Builds an [`RnsPoly`] from packed flat rows (the inverse of reading
/// `poly.flat()` into a dispatch buffer).
fn poly_from_rows(ring: &RnsRing, level: usize, repr: Representation, rows: &[u64]) -> RnsPoly {
    let mut p = RnsPoly::zero_with_repr(ring, level, repr);
    p.flat_mut().copy_from_slice(rows);
    p
}

/// The batched executor: host-synced key material plus the flat-call
/// pipelines for each request kind.
///
/// Holds its own host copies of the public key halves and the secret
/// key's evaluation form, synced (and device-evicted) once at
/// construction, so batch packing never trips over device-dirty key
/// polynomials whatever backend the context runs.
pub struct Batcher {
    pk_b: RnsPoly,
    pk_a: RnsPoly,
    sk_eval: RnsPoly,
}

impl Batcher {
    /// Snapshot the key material needed by the pipelines.
    pub fn new(keys: &KeySet) -> Self {
        let host_copy = |p: &RnsPoly| {
            let mut c = p.clone();
            c.sync();
            c.evict_device();
            c
        };
        let (b, a) = keys.public.halves();
        Batcher {
            pk_b: host_copy(b),
            pk_a: host_copy(a),
            sk_eval: host_copy(keys.secret.eval_poly()),
        }
    }

    /// Encrypt `jobs.len()` value vectors in two backend calls total:
    /// one `try_forward_flat` over all `4k` sampled/encoded polynomials
    /// (`u, e0, e1, m` per job) and one `try_pointwise_flat` over all `2k`
    /// public-key products (`u·b`, `u·a` per job). The additions are
    /// exact host arithmetic.
    pub fn encrypt_batch(
        &self,
        ctx: &HeContext,
        ev: &mut Evaluator,
        jobs: &[EncryptJob],
    ) -> Vec<Ciphertext> {
        self.try_encrypt_batch(ctx, ev, jobs)
            .expect("backend without a fault surface never fails")
    }

    /// Fallible [`Batcher::encrypt_batch`]: a classified device fault
    /// comes back as `Err` instead of panicking. The job inputs are
    /// borrowed immutably, so the caller can simply call again (with a
    /// healthy or fallback evaluator) and get bit-identical results —
    /// per-job randomness comes from [`EncryptJob::seed`], never from
    /// attempt count.
    pub fn try_encrypt_batch(
        &self,
        ctx: &HeContext,
        ev: &mut Evaluator,
        jobs: &[EncryptJob],
    ) -> Result<Vec<Ciphertext>, BackendError> {
        if jobs.is_empty() {
            return Ok(Vec::new());
        }
        let ring = ctx.ring();
        let level = ctx.params().levels;
        let eta = ctx.params().error_eta;
        let stride = ring.degree() * level;
        let k = jobs.len();

        // Sample and encode per job, packing [u, e0, e1, m] rows.
        let mut fwd = Vec::with_capacity(4 * k * stride);
        let mut scales = Vec::with_capacity(k);
        for job in jobs {
            let mut rng = sampling::seeded_rng(job.seed);
            let u = sampling::ternary_poly(ring, &mut rng);
            let e0 = sampling::error_poly(ring, eta, &mut rng);
            let e1 = sampling::error_poly(ring, eta, &mut rng);
            let pt = ctx.encode(&job.values);
            scales.push(pt.scale());
            for p in [&u, &e0, &e1, pt.poly()] {
                fwd.extend_from_slice(p.flat());
            }
        }
        ev.try_forward_flat(level, &mut fwd)?;

        // One pointwise call for every key product: acc packs [u, u] per
        // job against rhs [b, a].
        let mut acc = Vec::with_capacity(2 * k * stride);
        let mut rhs = Vec::with_capacity(2 * k * stride);
        for j in 0..k {
            let u = &fwd[4 * j * stride..4 * j * stride + stride];
            acc.extend_from_slice(u);
            acc.extend_from_slice(u);
            rhs.extend_from_slice(self.pk_b.flat());
            rhs.extend_from_slice(self.pk_a.flat());
        }
        ev.try_pointwise_flat(level, &mut acc, &rhs)?;

        // c0 = u·b + e0 + m, c1 = u·a + e1 — evaluation form throughout.
        let eval = Representation::Evaluation;
        Ok((0..k)
            .map(|j| {
                let base = 4 * j * stride;
                let e0 = poly_from_rows(ring, level, eval, &fwd[base + stride..][..stride]);
                let e1 = poly_from_rows(ring, level, eval, &fwd[base + 2 * stride..][..stride]);
                let m = poly_from_rows(ring, level, eval, &fwd[base + 3 * stride..][..stride]);
                let mut c0 = poly_from_rows(ring, level, eval, &acc[2 * j * stride..][..stride]);
                c0.add_assign(&e0, ring);
                c0.add_assign(&m, ring);
                let mut c1 =
                    poly_from_rows(ring, level, eval, &acc[(2 * j + 1) * stride..][..stride]);
                c1.add_assign(&e1, ring);
                Ciphertext::from_parts(c0, c1, scales[j])
            })
            .collect())
    }

    /// Weighted plaintext multiply + rescale for a group of ciphertexts
    /// sharing one level, in four backend calls total: `try_forward_flat`
    /// over the `k` encoded weight polynomials, `try_pointwise_flat` +
    /// `try_inverse_flat` over the `2k` ciphertext halves, and a final
    /// `try_forward_flat` over the `2k` rescaled halves at the new level.
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
        self.try_eval_batch(ctx, ev, jobs)
            .expect("backend without a fault surface never fails")
    }

    /// Fallible [`Batcher::eval_batch`]. On `Err` only this call's local
    /// staging buffers were touched — the caller's ciphertexts are its
    /// own clones — so re-running the identical batch on another
    /// evaluator yields bit-identical results.
    pub fn try_eval_batch(
        &self,
        ctx: &HeContext,
        ev: &mut Evaluator,
        mut jobs: Vec<(Ciphertext, Vec<f64>)>,
    ) -> Result<Vec<Ciphertext>, BackendError> {
        if jobs.is_empty() {
            return Ok(Vec::new());
        }
        let ring = ctx.ring();
        let level = jobs[0].0.level();
        assert!(level >= 2, "no prime left to rescale into");
        let stride = ring.degree() * level;
        let k = jobs.len();

        // Encode + truncate every weight vector, one forward call.
        let mut weights = Vec::with_capacity(k * stride);
        let mut scales = Vec::with_capacity(k);
        for (ct, w) in &jobs {
            assert_eq!(ct.level(), level, "eval group mixes levels");
            let pt = ctx.encode(w);
            scales.push(ct.scale() * pt.scale());
            weights.extend_from_slice(pt.poly().truncated(level).flat());
        }
        ev.try_forward_flat(level, &mut weights)?;

        // Multiply both halves of every ciphertext by its weight poly,
        // then inverse-transform the lot for the rescale.
        let mut acc = Vec::with_capacity(2 * k * stride);
        let mut rhs = Vec::with_capacity(2 * k * stride);
        for (j, (ct, _)) in jobs.iter_mut().enumerate() {
            ct.try_sync()?;
            let (c0, c1) = ct.components();
            acc.extend_from_slice(c0.flat());
            acc.extend_from_slice(c1.flat());
            let w = &weights[j * stride..(j + 1) * stride];
            rhs.extend_from_slice(w);
            rhs.extend_from_slice(w);
        }
        ev.try_pointwise_flat(level, &mut acc, &rhs)?;
        ev.try_inverse_flat(level, &mut acc)?;

        // Exact host rescale per half, then one forward call at the new
        // level to return to evaluation form.
        let coef = Representation::Coefficient;
        let rescaled: Vec<RnsPoly> = (0..2 * k)
            .map(|r| {
                let mut p = poly_from_rows(ring, level, coef, &acc[r * stride..][..stride]);
                p.rescale(ring);
                p
            })
            .collect();
        let new_level = level - 1;
        let new_stride = ring.degree() * new_level;
        let mut fwd = Vec::with_capacity(2 * k * new_stride);
        for p in &rescaled {
            fwd.extend_from_slice(p.flat());
        }
        ev.try_forward_flat(new_level, &mut fwd)?;

        let p_last = ring.basis().primes()[level - 1] as f64;
        let eval = Representation::Evaluation;
        Ok((0..k)
            .map(|j| {
                let c0 = poly_from_rows(
                    ring,
                    new_level,
                    eval,
                    &fwd[2 * j * new_stride..][..new_stride],
                );
                let c1 = poly_from_rows(
                    ring,
                    new_level,
                    eval,
                    &fwd[(2 * j + 1) * new_stride..][..new_stride],
                );
                Ciphertext::from_parts(c0, c1, scales[j] / p_last)
            })
            .collect())
    }

    /// Decrypt + decode a group of ciphertexts sharing one level, in two
    /// backend calls total: `try_pointwise_flat` over the `k` products
    /// `c1·s` and `try_inverse_flat` over the `k` sums `c0 + c1·s`. Returns
    /// all `N` decoded coefficients per job, like
    /// [`he_lite::HeContext::decode`].
    ///
    /// # Panics
    ///
    /// Panics if the group mixes levels.
    pub fn decrypt_batch(
        &self,
        ctx: &HeContext,
        ev: &mut Evaluator,
        cts: Vec<Ciphertext>,
    ) -> Vec<Vec<f64>> {
        self.try_decrypt_batch(ctx, ev, cts)
            .expect("backend without a fault surface never fails")
    }

    /// Fallible [`Batcher::decrypt_batch`] (see
    /// [`Batcher::try_eval_batch`] for the retry contract).
    pub fn try_decrypt_batch(
        &self,
        ctx: &HeContext,
        ev: &mut Evaluator,
        mut cts: Vec<Ciphertext>,
    ) -> Result<Vec<Vec<f64>>, BackendError> {
        if cts.is_empty() {
            return Ok(Vec::new());
        }
        let ring = ctx.ring();
        let n = ring.degree();
        let level = cts[0].level();
        let stride = n * level;
        let k = cts.len();
        let s = self.sk_eval.truncated(level);

        let mut acc = Vec::with_capacity(k * stride);
        let mut rhs = Vec::with_capacity(k * stride);
        for ct in &mut cts {
            assert_eq!(ct.level(), level, "decrypt group mixes levels");
            ct.try_sync()?;
            acc.extend_from_slice(ct.components().1.flat());
            rhs.extend_from_slice(s.flat());
        }
        ev.try_pointwise_flat(level, &mut acc, &rhs)?;

        // Host add of c0, then one inverse call over every sum.
        let eval = Representation::Evaluation;
        for (j, ct) in cts.iter().enumerate() {
            let mut m = poly_from_rows(ring, level, eval, &acc[j * stride..][..stride]);
            m.add_assign(ct.components().0, ring);
            acc[j * stride..(j + 1) * stride].copy_from_slice(m.flat());
        }
        ev.try_inverse_flat(level, &mut acc)?;

        let coef = Representation::Coefficient;
        Ok(cts
            .iter()
            .enumerate()
            .map(|(j, ct)| {
                let m = poly_from_rows(ring, level, coef, &acc[j * stride..][..stride]);
                (0..n)
                    .map(|i| {
                        let v = m
                            .coefficient_centered(ring, i)
                            .expect("plaintext coefficients fit i128");
                        v as f64 / ct.scale()
                    })
                    .collect()
            })
            .collect())
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
            for (got, want) in out.iter().zip(want) {
                assert!((got - want).abs() < 1e-2, "decrypted {got}, wanted {want}");
            }
        }
    }
}
