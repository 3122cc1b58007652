//! Fused lazy-reduction execution engine for batched (RNS) NTTs.
//!
//! The transforms in [`crate::ct`] are single-shot: every public entry
//! re-reduces after each stage and the ring-level multiply used to clone
//! both operands and allocate per call. This module supplies the missing
//! execution layer the paper's GPU pipeline implies (§IV–§V):
//!
//! * [`NttExecutor`] — runs polynomial multiplication as **one fused lazy
//!   pipeline**: `ntt_lazy → lazy pointwise (< 2p) → intt_lazy`, with
//!   exactly one final reduction (folded into the `N⁻¹` stage of the
//!   inverse transform) instead of a reduction per stage.
//! * [`Workspace`] — grow-only scratch buffers, so the steady-state
//!   multiply path performs **zero heap allocation** (verified by the
//!   [`Workspace::reallocs`] counter).
//! * Batched entry points ([`NttExecutor::forward_rows`], …) that
//!   transform all RNS limbs of a batch in a single call, amortizing
//!   dispatch the way the paper amortizes kernel launches over the `np`
//!   batch.
//! * [`ThreadPolicy`] — residue-parallel execution across RNS limbs with
//!   `std::thread::scope`, tunable via the `NTT_WARP_THREADS` environment
//!   variable. Limbs are arithmetically independent (each is reduced mod
//!   its own prime), so the output is **bit-identical for every thread
//!   count**.
//!
//! Lazy-domain invariants maintained end to end (`p < 2^62`):
//!
//! ```text
//! input (canonical, < p)
//!   → ntt_lazy        : operands < 4p, outputs < 4p   (Harvey CT butterfly)
//!   → lazy pointwise  : operands folded < 2p, Barrett product < 2p
//!   → intt_lazy       : GS butterfly keeps < 2p, final N⁻¹ Shoup
//!                       multiplication reduces fully  (< p)
//! ```
//!
//! Moduli at or above the `2^62` lazy bound fall back to the strict path
//! transparently.
//!
//! # Example
//!
//! ```
//! use ntt_core::engine::{NttExecutor, ThreadPolicy};
//! use ntt_core::{NegacyclicRing, Polynomial};
//!
//! let ring = NegacyclicRing::new_with_bits(8, 60)?;
//! let mut ex = NttExecutor::new(ThreadPolicy::Single);
//! let a = Polynomial::from_coeffs(vec![1, 1], 8);
//! let c = ex.negacyclic_multiply(&ring, &a, &a);
//! assert_eq!(&c.coeffs()[..3], &[1, 2, 1]); // (1 + x)^2
//! # Ok::<(), ntt_core::RingError>(())
//! ```

use crate::backend::PointwiseStrategy;
use crate::ct;
use crate::poly::{NegacyclicRing, Polynomial, Representation, RnsPoly, RnsRing};
use crate::table::NttTable;
use ntt_math::shoup::MAX_LAZY_MODULUS;

/// How many OS threads an executor may use for residue-parallel batches.
///
/// Resolution happens per call ([`ThreadPolicy::resolve`]) and is capped by
/// the number of independent jobs, so small batches never pay spawn
/// overhead for idle threads. Output never depends on the resolved count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ThreadPolicy {
    /// Everything on the calling thread (no spawns at all).
    Single,
    /// At most this many threads (values 0/1 behave like `Auto`/`Single`).
    Fixed(usize),
    /// Use [`std::thread::available_parallelism`].
    #[default]
    Auto,
}

impl ThreadPolicy {
    /// Policy from the `NTT_WARP_THREADS` environment variable:
    /// unset / empty / `auto` / `0` → [`ThreadPolicy::Auto`], `1` →
    /// [`ThreadPolicy::Single`], `k` → [`ThreadPolicy::Fixed`]`(k)`.
    /// Unparsable values fall back to `Auto`.
    pub fn from_env() -> Self {
        match std::env::var("NTT_WARP_THREADS") {
            Ok(s) => Self::parse(&s),
            Err(_) => ThreadPolicy::Auto,
        }
    }

    /// Parse the `NTT_WARP_THREADS` syntax (see [`ThreadPolicy::from_env`]).
    pub fn parse(s: &str) -> Self {
        let s = s.trim();
        if s.is_empty() || s.eq_ignore_ascii_case("auto") {
            return ThreadPolicy::Auto;
        }
        match s.parse::<usize>() {
            Ok(0) | Err(_) => ThreadPolicy::Auto,
            Ok(1) => ThreadPolicy::Single,
            Ok(k) => ThreadPolicy::Fixed(k),
        }
    }

    /// The thread count to use for `jobs` independent jobs (always ≥ 1,
    /// never more than `jobs`).
    pub fn resolve(&self, jobs: usize) -> usize {
        let auto = || {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        };
        let cap = match self {
            ThreadPolicy::Single => 1,
            ThreadPolicy::Fixed(0) => auto(),
            ThreadPolicy::Fixed(k) => *k,
            ThreadPolicy::Auto => auto(),
        };
        cap.min(jobs).max(1)
    }
}

/// Minimum 64-bit words of work per spawned thread. Spawning and joining
/// an OS thread costs tens of microseconds — comparable to a full 2^11
/// -point lazy NTT — so batches smaller than this per thread run serially
/// even under `Auto`/`Fixed` policies (output is identical either way).
const MIN_WORDS_PER_THREAD: usize = 1 << 14;

/// Threads to actually use: the policy's resolution, further capped so
/// each spawned thread gets at least [`MIN_WORDS_PER_THREAD`] of work.
fn effective_threads(policy: ThreadPolicy, jobs: usize, total_words: usize) -> usize {
    policy
        .resolve(jobs)
        .min((total_words / MIN_WORDS_PER_THREAD).max(1))
}

/// Grow-only scratch buffers backing an executor.
///
/// Buffers are sized to the largest `level × N` seen and then reused; the
/// [`Workspace::reallocs`] counter exposes every growth event so tests can
/// assert the steady-state multiply path allocates nothing.
#[derive(Debug, Default)]
pub struct Workspace {
    a: Vec<u64>,
    b: Vec<u64>,
    reallocs: usize,
}

impl Workspace {
    /// Two disjoint scratch slices of `words` elements each.
    fn pair(&mut self, words: usize) -> (&mut [u64], &mut [u64]) {
        if self.a.len() < words {
            self.a.resize(words, 0);
            self.reallocs += 1;
        }
        if self.b.len() < words {
            self.b.resize(words, 0);
            self.reallocs += 1;
        }
        (&mut self.a[..words], &mut self.b[..words])
    }

    /// Number of buffer growth events since construction. Stable across
    /// calls once the workspace has warmed up to the largest shape.
    #[inline]
    pub fn reallocs(&self) -> usize {
        self.reallocs
    }
}

/// Run `work(row_index, row)` over every `n`-word row of `data`, split
/// into contiguous per-thread chunks. Allocation-free: threads receive
/// disjoint sub-slices straight from `chunks_mut`. Rows must be
/// independent; the result is deterministic regardless of the split.
fn run_rows(threads: usize, n: usize, data: &mut [u64], work: impl Fn(usize, &mut [u64]) + Sync) {
    let rows = data.len() / n;
    if threads <= 1 || rows <= 1 {
        for (i, row) in data.chunks_exact_mut(n).enumerate() {
            work(i, row);
        }
        return;
    }
    let per = rows.div_ceil(threads);
    std::thread::scope(|s| {
        for (c, chunk) in data.chunks_mut(per * n).enumerate() {
            let work = &work;
            s.spawn(move || {
                for (k, row) in chunk.chunks_exact_mut(n).enumerate() {
                    work(c * per + k, row);
                }
            });
        }
    });
}

/// One limb of a fused negacyclic multiply: copy the canonical operand
/// rows into scratch, transform lazily, lazy-pointwise into `out`, and
/// inverse-transform — a single full reduction at the very end.
///
/// `strategy` selects the pointwise reduction (plan-time choice); `None`
/// uses the default Barrett lazy product. Every strategy yields the same
/// canonical result — the product mod p is exact — so the choice is purely
/// a performance knob.
fn fused_limb(
    ring: &NegacyclicRing,
    strategy: Option<&PointwiseStrategy>,
    a: &[u64],
    b: &[u64],
    wa: &mut [u64],
    wb: &mut [u64],
    out: &mut [u64],
) {
    let table = ring.table();
    let p = table.modulus();
    wa.copy_from_slice(a);
    wb.copy_from_slice(b);
    if let Some(h) = ring.hier() {
        // Bootstrapping-scale limb: the 4-step plan keeps every sub-pass
        // cache-resident. Operands stay canonical end to end (the plan is
        // canonical-in/canonical-out), so the pointwise product runs strict.
        h.forward(wa);
        h.forward(wb);
        match strategy {
            Some(PointwiseStrategy::Montgomery(m)) => {
                for (o, (&x, &y)) in out.iter_mut().zip(wa.iter().zip(wb.iter())) {
                    *o = m.mul_plain(x, y);
                }
            }
            _ => {
                out.copy_from_slice(wa);
                ct::pointwise_assign(out, wb, p);
            }
        }
        h.inverse(out);
    } else if p < MAX_LAZY_MODULUS {
        ct::ntt_lazy(wa, table); // < 4p
        ct::ntt_lazy(wb, table); // < 4p
        match strategy {
            Some(PointwiseStrategy::Montgomery(m)) => {
                // Fold the [0, 4p) lazy operands to [0, 2p), then reduce via
                // two REDC passes to a canonical product (< p < 2p, a valid
                // lazy-domain input for `intt_lazy`).
                let two_p = 2 * p;
                for (o, (&x, &y)) in out.iter_mut().zip(wa.iter().zip(wb.iter())) {
                    let u = if x >= two_p { x - two_p } else { x };
                    let v = if y >= two_p { y - two_p } else { y };
                    *o = m.mul_plain(u, v);
                }
            }
            _ => ct::pointwise_lazy_into(out, wa, wb, p), // < 2p
        }
        ct::intt_lazy(out, table); // < p (final N^-1 stage reduces)
    } else {
        // Strict fallback for moduli at/above the 2^62 lazy bound.
        ct::ntt(wa, table);
        ct::ntt(wb, table);
        out.copy_from_slice(wa);
        ct::pointwise_assign(out, wb, p);
        ct::intt(out, table);
    }
}

/// Forward-transform one canonical row in place (canonical out).
fn forward_row(table: &NttTable, row: &mut [u64]) {
    let p = table.modulus();
    if p < MAX_LAZY_MODULUS {
        ct::ntt_lazy(row, table);
        ct::reduce_from_lazy(row, p);
    } else {
        ct::ntt(row, table);
    }
}

/// Inverse-transform one canonical row in place (canonical out).
fn inverse_row(table: &NttTable, row: &mut [u64]) {
    if table.modulus() < MAX_LAZY_MODULUS {
        ct::intt_lazy(row, table); // already fully reduced
    } else {
        ct::intt(row, table);
    }
}

/// Forward-transform one row under a ring: bootstrapping-scale rings go
/// through the hierarchical 4-step plan, the rest through the flat lazy
/// kernel. Bit-identical either way (canonical in/out).
fn forward_ring_row(ring: &NegacyclicRing, row: &mut [u64]) {
    match ring.hier() {
        Some(h) => h.forward(row),
        None => forward_row(ring.table(), row),
    }
}

/// Inverse counterpart of [`forward_ring_row`].
fn inverse_ring_row(ring: &NegacyclicRing, row: &mut [u64]) {
    match ring.hier() {
        Some(h) => h.inverse(row),
        None => inverse_row(ring.table(), row),
    }
}

/// The fused-pipeline executor: a [`ThreadPolicy`] plus a reusable
/// [`Workspace`].
///
/// One executor per thread is the intended shape (they are cheap — scratch
/// grows on first use); module-level helpers route the ring APIs through
/// the one inside the thread-local default backend (see
/// [`crate::backend::with_default_backend`]).
#[derive(Debug, Default)]
pub struct NttExecutor {
    policy: ThreadPolicy,
    ws: Workspace,
}

impl NttExecutor {
    /// Executor with an explicit thread policy.
    pub fn new(policy: ThreadPolicy) -> Self {
        Self {
            policy,
            ws: Workspace::default(),
        }
    }

    /// Executor configured from `NTT_WARP_THREADS` (see
    /// [`ThreadPolicy::from_env`]).
    pub fn from_env() -> Self {
        Self::new(ThreadPolicy::from_env())
    }

    /// The thread policy in force.
    #[inline]
    pub fn policy(&self) -> ThreadPolicy {
        self.policy
    }

    /// The scratch workspace (for allocation accounting).
    #[inline]
    pub fn workspace(&self) -> &Workspace {
        &self.ws
    }

    /// Fused single-prime negacyclic product into a caller-provided output
    /// slice. Zero allocation once the workspace is warm.
    ///
    /// # Panics
    ///
    /// Panics if any slice length differs from the ring degree.
    pub fn negacyclic_multiply_into(
        &mut self,
        ring: &NegacyclicRing,
        a: &[u64],
        b: &[u64],
        out: &mut [u64],
    ) {
        let n = ring.degree();
        assert_eq!(a.len(), n, "degree mismatch (lhs)");
        assert_eq!(b.len(), n, "degree mismatch (rhs)");
        assert_eq!(out.len(), n, "degree mismatch (out)");
        let (wa, wb) = self.ws.pair(n);
        fused_limb(ring, None, a, b, wa, wb, out);
    }

    /// Fused single-prime negacyclic product (allocates only the result).
    pub fn negacyclic_multiply(
        &mut self,
        ring: &NegacyclicRing,
        a: &Polynomial,
        b: &Polynomial,
    ) -> Polynomial {
        let mut out = Polynomial::zero(ring.degree());
        self.negacyclic_multiply_into(ring, a.coeffs(), b.coeffs(), out.coeffs_mut());
        out
    }

    /// Fused RNS negacyclic product into a caller-provided output
    /// polynomial: all limbs go through the lazy pipeline, residue-parallel
    /// under the thread policy. Zero allocation once the workspace is warm.
    ///
    /// Inputs must be in coefficient form; the output is written in
    /// coefficient form at the operands' level.
    ///
    /// # Panics
    ///
    /// Panics on level/representation/shape mismatches.
    pub fn rns_multiply_into(
        &mut self,
        ring: &RnsRing,
        a: &RnsPoly,
        b: &RnsPoly,
        out: &mut RnsPoly,
    ) {
        let n = ring.degree();
        let level = a.level();
        assert_eq!(level, b.level(), "level mismatch");
        assert_eq!(
            a.repr(),
            Representation::Coefficient,
            "lhs must be coefficients"
        );
        assert_eq!(
            b.repr(),
            Representation::Coefficient,
            "rhs must be coefficients"
        );
        assert_eq!(out.degree(), n, "output degree mismatch");
        assert_eq!(out.level(), level, "output level mismatch");
        self.multiply_rows_under(ring, 0..level, a.flat(), b.flat(), out.flat_mut(), None);
        out.set_repr(Representation::Coefficient);
    }

    /// Fused negacyclic products over flat `rows × N` buffers, where row
    /// `r` is reduced mod prime `primes.start + r % primes.len()` — the
    /// batched backend entry point: a single
    /// [`crate::backend::LimbBatch`]-shaped buffer may hold several
    /// stacked polynomials (e.g. a key-switch buffer of digits).
    /// Residue-parallel under the thread policy; zero allocation once the
    /// workspace is warm.
    ///
    /// `strategies` optionally supplies the plan's per-prime pointwise
    /// reduction choice (indexed by prime); `None` means Barrett.
    ///
    /// # Panics
    ///
    /// Panics if the buffers disagree in length, are not whole rows, or if
    /// the prime range is empty or past the basis.
    pub fn multiply_rows_under(
        &mut self,
        ring: &RnsRing,
        primes: std::ops::Range<usize>,
        a: &[u64],
        b: &[u64],
        out: &mut [u64],
        strategies: Option<&[PointwiseStrategy]>,
    ) {
        let n = ring.degree();
        assert_eq!(a.len(), out.len(), "operand/output length mismatch");
        assert_eq!(b.len(), out.len(), "operand/output length mismatch");
        assert_eq!(out.len() % n, 0, "flat buffer must be rows × N");
        assert!(
            !primes.is_empty() && primes.end <= ring.np(),
            "invalid level"
        );
        let rows = out.len() / n;
        let prime_of = |i: usize| primes.start + i % primes.len();
        let strat = |i: usize| strategies.map(|s| &s[prime_of(i)]);

        // Each limb touches ~5N words (two operand copies, two transforms,
        // one output); weigh the spawn cutoff by the scratch volume.
        let threads = effective_threads(self.policy, rows, 3 * rows * n);
        let (wa, wb) = self.ws.pair(rows * n);
        if threads <= 1 {
            let limbs = out
                .chunks_exact_mut(n)
                .zip(wa.chunks_exact_mut(n))
                .zip(wb.chunks_exact_mut(n));
            for (i, ((o, sa), sb)) in limbs.enumerate() {
                let limb_ring = ring.ring(prime_of(i));
                let (ar, br) = (&a[i * n..(i + 1) * n], &b[i * n..(i + 1) * n]);
                fused_limb(limb_ring, strat(i), ar, br, sa, sb, o);
            }
        } else {
            // Contiguous per-thread spans over the three flat buffers —
            // no job list is materialized, the steady state stays
            // allocation-free (spawned threads are the only OS cost).
            let per = rows.div_ceil(threads);
            let span = per * n;
            std::thread::scope(|s| {
                let spans = out
                    .chunks_mut(span)
                    .zip(wa.chunks_mut(span))
                    .zip(wb.chunks_mut(span));
                for (c, ((oc, ac), bc)) in spans.enumerate() {
                    let (strat, prime_of) = (&strat, &prime_of);
                    s.spawn(move || {
                        let limbs = oc
                            .chunks_exact_mut(n)
                            .zip(ac.chunks_exact_mut(n))
                            .zip(bc.chunks_exact_mut(n));
                        for (k, ((o, sa), sb)) in limbs.enumerate() {
                            let i = c * per + k;
                            let limb_ring = ring.ring(prime_of(i));
                            let (ar, br) = (&a[i * n..(i + 1) * n], &b[i * n..(i + 1) * n]);
                            fused_limb(limb_ring, strat(i), ar, br, sa, sb, o);
                        }
                    });
                }
            });
        }
    }

    /// Fused RNS negacyclic product (allocates only the result).
    pub fn rns_multiply(&mut self, ring: &RnsRing, a: &RnsPoly, b: &RnsPoly) -> RnsPoly {
        let mut out = RnsPoly::zero_at_level(ring, a.level());
        self.rns_multiply_into(ring, a, b, &mut out);
        out
    }

    /// Forward-NTT `rows` contiguous limbs held in a flat `rows × N`
    /// buffer, limb `i` under prime `i` of `ring` — the batched entry point
    /// ([`RnsPoly`] stores its residues exactly like this). Canonical in,
    /// canonical out; residue-parallel under the thread policy.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not a whole number of rows or has more rows than
    /// the ring has primes.
    pub fn forward_rows(&mut self, ring: &RnsRing, data: &mut [u64]) {
        let rows = data.len() / ring.degree();
        assert!(rows <= ring.np(), "more rows than primes");
        self.transform_rows_under(ring, 0..rows.max(1), data, true);
    }

    /// Inverse counterpart of [`NttExecutor::forward_rows`].
    pub fn inverse_rows(&mut self, ring: &RnsRing, data: &mut [u64]) {
        let rows = data.len() / ring.degree();
        assert!(rows <= ring.np(), "more rows than primes");
        self.transform_rows_under(ring, 0..rows.max(1), data, false);
    }

    /// Transform a flat `rows × N` buffer under a run of primes: row `i`
    /// under prime `primes.start + i % primes.len()` — several
    /// polynomials of `primes.len()` limbs stacked back to back (the
    /// key-switch buffer-of-digits layout, primes `0..level`), or rows
    /// under primes that do not start at 0 (the dropped rows of a
    /// rescale). Canonical in, canonical out; residue-parallel under the
    /// thread policy.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is not whole rows, the prime range is empty
    /// or past the basis, or the rows do not fill whole cycles of it.
    pub fn transform_rows_under(
        &mut self,
        ring: &RnsRing,
        primes: std::ops::Range<usize>,
        data: &mut [u64],
        forward: bool,
    ) {
        let n = ring.degree();
        assert_eq!(data.len() % n, 0, "flat buffer must be rows × N");
        let level = primes.len();
        assert!(level >= 1 && primes.end <= ring.np(), "invalid level");
        let rows = data.len() / n;
        assert_eq!(rows % level, 0, "rows must be whole polynomials");
        let threads = effective_threads(self.policy, rows, data.len());
        run_rows(threads, n, data, |i, row| {
            let limb_ring = ring.ring(primes.start + i % level);
            if forward {
                forward_ring_row(limb_ring, row);
            } else {
                inverse_ring_row(limb_ring, row);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::negacyclic_convolution;

    fn rns_ring(n: usize, bits: u32, np: usize) -> RnsRing {
        RnsRing::new(n, ntt_math::ntt_primes(bits, 2 * n as u64, np)).unwrap()
    }

    fn random_poly(ring: &RnsRing, seed: u64) -> RnsPoly {
        let mut x = RnsPoly::zero(ring);
        for i in 0..ring.np() {
            let p = ring.basis().primes()[i];
            for (j, v) in x.row_mut(i).iter_mut().enumerate() {
                *v = (seed ^ ((i as u64) << 32))
                    .wrapping_mul(0x2545_F491_4F6C_DD1D)
                    .wrapping_add((j as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                    % p;
            }
        }
        x
    }

    /// The pre-engine strict path, kept as the test oracle.
    fn strict_rns_multiply(ring: &RnsRing, a: &RnsPoly, b: &RnsPoly) -> RnsPoly {
        let mut out = RnsPoly::zero_at_level(ring, a.level());
        for i in 0..a.level() {
            let t = ring.ring(i).table();
            let mut na = a.row(i).to_vec();
            let mut nb = b.row(i).to_vec();
            ct::ntt(&mut na, t);
            ct::ntt(&mut nb, t);
            let mut prod: Vec<u64> = na
                .iter()
                .zip(&nb)
                .map(|(&x, &y)| ntt_math::mul_mod(x, y, t.modulus()))
                .collect();
            ct::intt(&mut prod, t);
            out.row_mut(i).copy_from_slice(&prod);
        }
        out
    }

    #[test]
    fn fused_single_prime_matches_naive() {
        let ring = NegacyclicRing::new_with_bits(32, 60).unwrap();
        let p = ring.modulus();
        let a = Polynomial::from_coeffs((1..=32).collect(), 32);
        let b = Polynomial::from_coeffs((0..32).map(|i| i * 3 + 1).collect(), 32);
        let mut ex = NttExecutor::new(ThreadPolicy::Single);
        let c = ex.negacyclic_multiply(&ring, &a, &b);
        assert_eq!(
            c.coeffs(),
            &negacyclic_convolution(a.coeffs(), b.coeffs(), p)[..]
        );
    }

    #[test]
    fn fused_rns_multiply_matches_strict_path() {
        let ring = rns_ring(64, 59, 4);
        let a = random_poly(&ring, 0xA5A5);
        let b = random_poly(&ring, 0x5A5A);
        let strict = strict_rns_multiply(&ring, &a, &b);
        for policy in [
            ThreadPolicy::Single,
            ThreadPolicy::Fixed(3),
            ThreadPolicy::Auto,
        ] {
            let mut ex = NttExecutor::new(policy);
            let fused = ex.rns_multiply(&ring, &a, &b);
            assert_eq!(fused, strict, "policy {policy:?}");
        }
    }

    #[test]
    fn workspace_is_reused_after_warmup() {
        let ring = rns_ring(32, 59, 3);
        let a = random_poly(&ring, 1);
        let b = random_poly(&ring, 2);
        let mut ex = NttExecutor::new(ThreadPolicy::Single);
        let mut out = RnsPoly::zero(&ring);
        ex.rns_multiply_into(&ring, &a, &b, &mut out);
        let warm = ex.workspace().reallocs();
        for _ in 0..10 {
            ex.rns_multiply_into(&ring, &a, &b, &mut out);
        }
        assert_eq!(
            ex.workspace().reallocs(),
            warm,
            "steady-state multiply must not grow the workspace"
        );
    }

    #[test]
    fn batched_rows_match_per_row_transforms() {
        let ring = rns_ring(32, 59, 3);
        let a = random_poly(&ring, 7);
        let mut batched = a.clone();
        let mut ex = NttExecutor::new(ThreadPolicy::Fixed(2));
        ex.forward_rows(&ring, batched.flat_mut());
        let mut per_row = a.clone();
        for i in 0..ring.np() {
            ct::ntt(per_row.row_mut(i), ring.ring(i).table());
        }
        assert_eq!(batched.flat(), per_row.flat());
        ex.inverse_rows(&ring, batched.flat_mut());
        assert_eq!(batched.flat(), a.flat());
    }

    #[test]
    fn thread_policy_parsing_and_resolution() {
        assert_eq!(ThreadPolicy::parse(""), ThreadPolicy::Auto);
        assert_eq!(ThreadPolicy::parse("auto"), ThreadPolicy::Auto);
        assert_eq!(ThreadPolicy::parse("0"), ThreadPolicy::Auto);
        assert_eq!(ThreadPolicy::parse("1"), ThreadPolicy::Single);
        assert_eq!(ThreadPolicy::parse("6"), ThreadPolicy::Fixed(6));
        assert_eq!(ThreadPolicy::parse("bogus"), ThreadPolicy::Auto);
        assert_eq!(ThreadPolicy::Single.resolve(8), 1);
        assert_eq!(ThreadPolicy::Fixed(4).resolve(8), 4);
        assert_eq!(ThreadPolicy::Fixed(4).resolve(2), 2);
        // Fixed(0) behaves like Auto (documented on the variant).
        assert_eq!(
            ThreadPolicy::Fixed(0).resolve(64),
            ThreadPolicy::Auto.resolve(64)
        );
        assert_eq!(ThreadPolicy::Fixed(0).resolve(0), 1);
        assert!(ThreadPolicy::Auto.resolve(64) >= 1);
    }

    #[test]
    fn spawn_cutoff_keeps_small_batches_serial() {
        // Below MIN_WORDS_PER_THREAD of total work, even greedy policies
        // resolve to one thread; large batches scale with the policy.
        assert_eq!(effective_threads(ThreadPolicy::Fixed(8), 4, 1 << 10), 1);
        assert_eq!(
            effective_threads(ThreadPolicy::Fixed(8), 8, 8 * MIN_WORDS_PER_THREAD),
            8
        );
        assert_eq!(effective_threads(ThreadPolicy::Single, 8, 1 << 30), 1);
    }

    #[test]
    fn large_modulus_falls_back_to_strict() {
        // A 63-bit NTT prime (1 mod 32) is above the 2^62 lazy bound; the
        // engine must still produce the correct product through the strict
        // fallback. (`ntt_math::ntt_prime` tops out at 62 bits, so the
        // prime is pinned.)
        let p = 0x7FFF_FFFF_FFFF_FD21u64;
        assert!(ntt_math::is_prime(p) && p % 32 == 1 && p >= MAX_LAZY_MODULUS);
        let ring = NegacyclicRing::new(16, p).unwrap();
        let a = Polynomial::from_coeffs(vec![1, 2, 3], 16);
        let b = Polynomial::from_coeffs(vec![4, 5], 16);
        let mut ex = NttExecutor::new(ThreadPolicy::Single);
        let c = ex.negacyclic_multiply(&ring, &a, &b);
        assert_eq!(
            c.coeffs(),
            &negacyclic_convolution(a.coeffs(), b.coeffs(), p)[..]
        );
    }
}
