//! The HE context: ring, gadget constants, and every scheme operation.
//!
//! Every operation that touches the NTT — encryption, key generation,
//! multiplication, relinearization, rescaling — runs through a
//! backend-generic [`Evaluator`], so the execution substrate (the fused
//! CPU engine, the simulated GPU warp kernels, …) is a one-line
//! constructor choice: [`HeContext::new`] picks the CPU backend,
//! [`HeContext::with_backend`] accepts any
//! [`ntt_core::backend::NttBackend`].
//!
//! Three properties of the execution model matter for throughput:
//!
//! * **Evaluator pool** — concurrent scheme operations on one shared
//!   context no longer serialize on a single evaluator lock: each
//!   operation checks an evaluator out of a pool (forking a new one from
//!   the backend when the pool runs dry), so `k` threads driving one
//!   context run on `k` evaluators sharing one [`ntt_core::RingPlan`]
//!   and one device memory.
//! * **Per-evaluator streams** — each pool member's backend fork owns a
//!   device stream, so on `SimBackend` the *modeled device time* of
//!   independent operations overlaps too (subject to SM occupancy; see
//!   `gpu_sim::stream`), not just the host-side work. Cross-evaluator
//!   data dependencies are fenced by per-buffer events, so any pool
//!   scheduling stays timing-consistent.
//! * **Device residency** — on backends with a real host↔device boundary
//!   ([`ntt_core::backend::NttBackend::prefers_residency`], e.g. the
//!   simulated GPU), key material and ciphertexts are uploaded once and
//!   every subsequent operation — including relinearization's digit
//!   decomposition and rescaling — runs on the device. After the initial
//!   upload, an encrypt → multiply → relinearize → rescale chain performs
//!   **zero** host↔device transfers (asserted by `tests/residency.rs`
//!   and gated in CI); data comes back only at explicit sync points
//!   (decrypt/decode, [`Ciphertext::sync`]).

use crate::ciphertext::{Ciphertext, Plaintext};
use crate::keys::{KeySet, PublicKey, RelinEntry, RelinKeys, RotationKeys, SecretKey};
use crate::params::HeLiteParams;
use crate::sampling;
use ntt_core::backend::{
    BackendError, CpuBackend, Evaluator, FaultClass, FmaFactor, NttBackend, TransferStats,
};
use ntt_core::poly::{Representation, RingError, RnsPoly, RnsRing};
use rand::{Rng, RngExt};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Errors from context construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HeError {
    /// The underlying ring could not be built.
    Ring(RingError),
}

impl std::fmt::Display for HeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HeError::Ring(e) => write!(f, "ring construction: {e}"),
        }
    }
}

impl std::error::Error for HeError {}

impl From<RingError> for HeError {
    fn from(e: RingError) -> Self {
        HeError::Ring(e)
    }
}

/// The evaluator pool: idle evaluators plus the prototype backend new
/// members are forked from. Checkout holds the `idle` lock only for a
/// pop/push, so concurrent scheme operations overlap; forks share the
/// prototype's device memory and the ring's one cached plan.
struct EvalPool {
    /// Fork source (also answers identity queries: name, memory). Locked
    /// only briefly, never across an operation.
    proto: Mutex<Box<dyn NttBackend>>,
    idle: Mutex<Vec<Evaluator>>,
    /// Evaluators ever created (pool high-water mark).
    created: AtomicUsize,
    /// Pool members dropped after a non-transient fault (each one is
    /// replaced by a fresh fork, so capacity survives the fault).
    quarantined: AtomicUsize,
}

impl std::fmt::Debug for EvalPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalPool")
            .field("created", &self.created.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// Lock helper: the pool holds plain state, so poisoning is recovered
/// rather than cascaded.
fn lock<T: ?Sized>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The scheme context: parameters, the RNS ring, the precomputed
/// CRT-gadget residues `[g_j^{(level)}]_{p_i}` used by relinearization,
/// and a pool of backend-generic [`Evaluator`]s executing every NTT
/// workload.
#[derive(Debug)]
pub struct HeContext {
    params: HeLiteParams,
    ring: RnsRing,
    /// `gadget[level - 1][j][i] = [ (Q_l/p_j) · ((Q_l/p_j)^{-1} mod p_j) ]_{p_i}`.
    gadget: Vec<Vec<Vec<u64>>>,
    /// The evaluator pool (see [`EvalPool`]); scheme operations stay
    /// `&self` and scale across threads instead of serializing on one
    /// evaluator mutex.
    pool: EvalPool,
    /// Keep key material and ciphertexts device-resident (decided once
    /// from the backend's preference).
    resident: bool,
}

impl HeContext {
    /// Build a context on the default CPU backend (generates the
    /// NTT-friendly prime chain and all tables).
    ///
    /// # Errors
    ///
    /// Propagates ring-construction failures.
    ///
    /// # Panics
    ///
    /// Panics if `params` are internally inconsistent (see
    /// [`HeLiteParams::validate`]).
    pub fn new(params: HeLiteParams) -> Result<Self, HeError> {
        Self::with_backend(params, Box::new(CpuBackend::from_env()))
    }

    /// Build a context on an explicit execution backend — the one-line
    /// substrate swap: pass `Box::new(ntt_gpu::SimBackend::titan_v())` to
    /// run every scheme operation through the simulated GPU kernels.
    ///
    /// # Errors
    ///
    /// Propagates ring-construction failures.
    ///
    /// # Panics
    ///
    /// Panics if `params` are internally inconsistent (see
    /// [`HeLiteParams::validate`]).
    pub fn with_backend(
        params: HeLiteParams,
        backend: Box<dyn NttBackend>,
    ) -> Result<Self, HeError> {
        params.validate();
        let primes = ntt_math::ntt_primes(params.prime_bits, 2 * params.n() as u64, params.levels);
        let ring = RnsRing::new(params.n(), primes.clone())?;
        // Gadget residues per level.
        let mut gadget = Vec::with_capacity(params.levels);
        for level in 1..=params.levels {
            let active = &primes[..level];
            let mut per_j = Vec::with_capacity(level);
            for j in 0..level {
                // M_j = prod of active primes except p_j.
                let m_j = ntt_math::BigUint::product(
                    &active
                        .iter()
                        .enumerate()
                        .filter(|&(i, _)| i != j)
                        .map(|(_, &p)| p)
                        .collect::<Vec<_>>(),
                );
                let m_j_mod_pj = &m_j % active[j];
                let y_j = ntt_math::inv_mod(m_j_mod_pj, active[j]).expect("coprime");
                let residues: Vec<u64> = active
                    .iter()
                    .map(|&p| ntt_math::mul_mod(&m_j % p, y_j % p, p))
                    .collect();
                per_j.push(residues);
            }
            gadget.push(per_j);
        }
        let resident = backend.prefers_residency();
        let pool = EvalPool {
            proto: Mutex::new(backend),
            idle: Mutex::new(Vec::new()),
            created: AtomicUsize::new(0),
            quarantined: AtomicUsize::new(0),
        };
        Ok(Self {
            params,
            ring,
            gadget,
            pool,
            resident,
        })
    }

    /// Fork a fresh pool member from the prototype backend (shares device
    /// memory and the memoized ring plan).
    fn fork_evaluator(&self) -> Evaluator {
        let backend = lock(&self.pool.proto).fork();
        self.pool.created.fetch_add(1, Ordering::Relaxed);
        Evaluator::with_backend(&self.ring, backend)
    }

    /// Pop an idle pool member, or fork a new one.
    fn checkout(&self) -> Evaluator {
        let idle = lock(&self.pool.idle).pop();
        idle.unwrap_or_else(|| self.fork_evaluator())
    }

    /// Run `f` with an evaluator checked out of the context's pool: pop
    /// an idle evaluator (or fork a new one), run, push it back. Every
    /// scheme operation runs this way, and it is the escape hatch for
    /// custom polynomial-level operations on the context's backend.
    ///
    /// Locks are held only around the pop/push, so concurrent operations
    /// proceed, and the checkout is reentrant: calling scheme operations
    /// (or this method) from inside `f` checks out *another* evaluator
    /// instead of deadlocking. A panic inside `f` drops that pool member
    /// (the pool shrinks by one; state cannot be corrupted).
    ///
    /// ```
    /// use he_lite::{HeContext, HeLiteParams};
    /// let ctx = HeContext::new(HeLiteParams {
    ///     log_n: 5, prime_bits: 50, levels: 2, scale_bits: 40,
    ///     gadget_bits: 10, error_eta: 4,
    /// })?;
    /// let deg = ctx.with_pooled_evaluator(|ev| ev.plan().degree());
    /// assert_eq!(deg, 32);
    /// # Ok::<(), he_lite::HeError>(())
    /// ```
    pub fn with_pooled_evaluator<R>(&self, f: impl FnOnce(&mut Evaluator) -> R) -> R {
        let mut ev = self.checkout();
        let r = f(&mut ev);
        lock(&self.pool.idle).push(ev);
        r
    }

    /// Fallible [`HeContext::with_pooled_evaluator`] with pool health
    /// tracking: run `f` on a pooled evaluator and return its result.
    ///
    /// A healthy outcome — `Ok`, or an `Err` whose class leaves the
    /// executor usable ([transient](BackendError::is_transient) faults
    /// and deadline expiries) — returns the member to the pool. A
    /// fatal/OOM fault **quarantines** the member: it is dropped (its
    /// stream and device scratch are released) and a fresh fork of the
    /// prototype takes its place in the idle set, so pool capacity is
    /// unchanged and no later checkout inherits a wedged executor. The
    /// quarantine count is visible via
    /// [`HeContext::quarantined_count`].
    pub fn try_with_pooled_evaluator<R>(
        &self,
        f: impl FnOnce(&mut Evaluator) -> Result<R, BackendError>,
    ) -> Result<R, BackendError> {
        let mut ev = self.checkout();
        let r = f(&mut ev);
        match &r {
            Err(e) if !e.is_transient() && e.class() != FaultClass::Deadline => {
                drop(ev);
                self.pool.quarantined.fetch_add(1, Ordering::Relaxed);
                let fresh = self.fork_evaluator();
                lock(&self.pool.idle).push(fresh);
            }
            _ => lock(&self.pool.idle).push(ev),
        }
        r
    }

    /// Evaluators created so far (the pool's high-water mark — grows with
    /// the maximum number of overlapping operations, plus one per
    /// quarantine replacement).
    pub fn evaluator_count(&self) -> usize {
        self.pool.created.load(Ordering::Relaxed)
    }

    /// Pool members quarantined (dropped and re-forked) after a
    /// non-transient fault — see
    /// [`HeContext::try_with_pooled_evaluator`].
    pub fn quarantined_count(&self) -> usize {
        self.pool.quarantined.load(Ordering::Relaxed)
    }

    /// Whether this context keeps polynomials device-resident.
    pub fn is_resident(&self) -> bool {
        self.resident
    }

    /// The backend's host↔device transfer ledger (shared by every pooled
    /// evaluator). The residency gates are written against this: reset,
    /// run a steady-state window, assert `host_transfers() == 0`.
    pub fn transfer_stats(&self) -> TransferStats {
        let mem = lock(&self.pool.proto).memory();
        let stats = mem
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .stats();
        stats
    }

    /// The label of the execution backend in use.
    pub fn backend_name(&self) -> &'static str {
        lock(&self.pool.proto).name()
    }

    /// The parameters.
    pub fn params(&self) -> &HeLiteParams {
        &self.params
    }

    /// The underlying RNS ring (exposes the NTT machinery).
    pub fn ring(&self) -> &RnsRing {
        &self.ring
    }

    /// Generate a full key set. Key material is computed host-side, then
    /// — on residency-preferring backends — uploaded once so that every
    /// later operation finds it on the device (part of a chain's "initial
    /// upload").
    ///
    /// The uploads are enqueued on the keygen evaluator's own stream (a
    /// *setup stream* in the backend's overlapped-time model): on
    /// `SimBackend`, concurrent encrypts running on other pool members'
    /// streams overlap the key upload instead of waiting behind it — the
    /// modeled window that shrinks a chain's initial-upload cost.
    pub fn keygen<R: Rng + RngExt>(&self, rng: &mut R) -> KeySet {
        let mut keys = self.with_pooled_evaluator(|ev| self.keygen_host(ev, rng));
        self.upload_keys(&mut keys);
        keys
    }

    /// The residency half of [`HeContext::keygen`]: upload key material
    /// once on residency-preferring backends (no-op elsewhere).
    fn upload_keys(&self, keys: &mut KeySet) {
        if self.resident {
            self.with_pooled_evaluator(|ev| {
                ev.make_resident(&mut keys.secret.s_eval);
                ev.make_resident(&mut keys.public.b);
                ev.make_resident(&mut keys.public.a);
            });
        }
        self.upload_entries(keys.relin.entries.iter_mut());
    }

    /// Upload key-switch entry sets (`[j][d]` each) once on
    /// residency-preferring backends (no-op elsewhere).
    fn upload_entries<'a>(&self, sets: impl Iterator<Item = &'a mut Vec<Vec<RelinEntry>>>) {
        if self.resident {
            self.with_pooled_evaluator(|ev| {
                for entry in sets.flatten().flatten() {
                    ev.make_resident(&mut entry.b);
                    ev.make_resident(&mut entry.a);
                }
            });
        }
    }

    /// Adopt a key set generated on another context with the **same
    /// parameters**: clone the host-side key material and — on
    /// residency-preferring backends — perform the one-time device
    /// upload.
    ///
    /// Key math in [`HeContext::keygen`] is host-only and therefore
    /// backend-independent (identical bits on every substrate), so a
    /// cross-backend comparison can pay the `Θ(levels² · digits)` host
    /// generation once and adopt the result everywhere — at
    /// bootstrapping-scale rings (N = 2¹⁶, ~20 levels) that generation
    /// is minutes of host NTTs and ~14 GB of key material per run.
    pub fn adopt_keys(&self, keys: &KeySet) -> KeySet {
        let mut keys = keys.clone();
        self.upload_keys(&mut keys);
        keys
    }

    /// Adopt rotation keys generated on another context with the same
    /// parameters — the [`HeContext::adopt_keys`] counterpart for
    /// [`HeContext::keygen_rotation`] output.
    pub fn adopt_rotation_keys(&self, rtk: &RotationKeys) -> RotationKeys {
        let mut rtk = rtk.clone();
        self.upload_entries(rtk.by_g.values_mut().flat_map(BTreeMap::values_mut));
        rtk
    }

    /// The host-side key computation (all polynomials [`RnsPoly`]
    /// host-only, so every evaluator call takes the host path — identical
    /// bits on every backend).
    fn keygen_host<R: Rng + RngExt>(&self, ev: &mut Evaluator, rng: &mut R) -> KeySet {
        let ring = &self.ring;
        let eta = self.params.error_eta;
        // Secret.
        let mut s = sampling::ternary_poly(ring, rng);
        // Public key: b = -(a s) + e.
        let mut a = sampling::uniform_poly(ring, rng);
        let mut e = sampling::error_poly(ring, eta, rng);
        ev.forward_polys(&mut [&mut s, &mut a, &mut e]);
        let mut b = a.clone();
        ev.mul_pointwise(&mut b, &s);
        b.negate(ring);
        b.add_assign(&e, ring);

        // Relin keys per level switch from s^2.
        let mut s2 = s.clone();
        ev.mul_pointwise(&mut s2, &s);
        let entries = (1..=self.params.levels)
            .map(|level| self.gadget_entries(ev, &s, &s2, level, rng))
            .collect();

        KeySet {
            secret: SecretKey { s_eval: s },
            public: PublicKey { b, a },
            relin: RelinKeys { entries },
        }
    }

    /// The gadget key-switch entries at `level` that switch a
    /// `target`-ciphertext back to `s` (both host-only, evaluation form,
    /// at least `level` primes): `entries[j][d]` encrypts
    /// `B^d · g_j · target` under `s` as `b = −(a·s) + e + B^d·g_j·target`,
    /// drawing `a` then `e` per `(j, d)`. Relinearization keys pass
    /// `target = s²`, rotation keys `target = τ_g(s)`.
    fn gadget_entries<R: Rng + RngExt>(
        &self,
        ev: &mut Evaluator,
        s: &RnsPoly,
        target: &RnsPoly,
        level: usize,
        rng: &mut R,
    ) -> Vec<Vec<RelinEntry>> {
        let ring = &self.ring;
        let (digits, w) = (self.params.gadget_digits(), self.params.gadget_bits);
        let s_l = s.truncated(level);
        let target_l = target.truncated(level);
        let mut per_j = Vec::with_capacity(level);
        for j in 0..level {
            let mut per_d = Vec::with_capacity(digits);
            for d in 0..digits {
                // g_{j,d} = B^d * g_j, as per-prime residues.
                let residues: Vec<u64> = self.gadget[level - 1][j]
                    .iter()
                    .zip(&ring.basis().primes()[..level])
                    .map(|(&g, &p)| {
                        let b_pow = ntt_math::pow_mod(2, u64::from(w) * d as u64, p);
                        ntt_math::mul_mod(g % p, b_pow, p)
                    })
                    .collect();
                // `a` drawn directly in evaluation form (uniform is
                // uniform in either domain) — halves keygen NTTs.
                let a = sampling::uniform_eval_poly(ring, level, rng);
                let mut e = sampling::error_poly(ring, self.params.error_eta, rng).truncated(level);
                ev.to_evaluation(&mut e);
                let mut b = a.clone();
                ev.mul_pointwise(&mut b, &s_l);
                b.negate(ring);
                b.add_assign(&e, ring);
                let mut g_target = target_l.clone();
                g_target.mul_scalar_residues(&residues, ring);
                b.add_assign(&g_target, ring);
                per_d.push(RelinEntry { b, a });
            }
            per_j.push(per_d);
        }
        per_j
    }

    /// Generate rotation (Galois) keys for the elements `gs` at the
    /// requested `levels` — sparse on both axes, since a bootstrap
    /// pipeline only rotates at a couple of known levels. Each entry
    /// encrypts `B^d · g_j · τ_g(s)` under `s` with the same hoisting-
    /// friendly digit layout as relinearization, so
    /// [`HeContext::rotate`] runs the same key switch.
    ///
    /// Like [`HeContext::keygen`], key material is computed host-side
    /// (identical bits on every backend) and then uploaded once on
    /// residency-preferring backends: rotation keys never cross the bus
    /// again, which is what makes repeated `bootstrap()` calls
    /// transfer-free in steady state.
    ///
    /// # Panics
    ///
    /// Panics if a `g` is even or a level is out of range.
    pub fn keygen_rotation<R: Rng + RngExt>(
        &self,
        sk: &SecretKey,
        gs: &[u64],
        levels: &[usize],
        rng: &mut R,
    ) -> RotationKeys {
        let two_n = 2 * self.params.n() as u64;
        let full = self.params.levels;
        let mut keys = self.with_pooled_evaluator(|ev| {
            // Host-only copy of the secret (the device-resident original
            // stays untouched); all key math below runs host-side.
            let s = sk.s_eval.truncated(full);
            let mut by_g = BTreeMap::new();
            for &g_raw in gs {
                let g = g_raw % two_n;
                assert_eq!(g % 2, 1, "Galois element must be odd");
                let mut s_g = s.clone();
                ev.to_coefficient(&mut s_g);
                ev.automorphism(&mut s_g, g);
                ev.to_evaluation(&mut s_g);
                let mut per_level = BTreeMap::new();
                for &level in levels {
                    assert!(level >= 1 && level <= full, "level out of range");
                    per_level.insert(level, self.gadget_entries(ev, &s, &s_g, level, rng));
                }
                by_g.insert(g, per_level);
            }
            RotationKeys { by_g }
        });
        self.upload_entries(keys.by_g.values_mut().flat_map(BTreeMap::values_mut));
        keys
    }

    /// Apply the Galois automorphism `X → X^g` homomorphically: both
    /// components are permuted, then the `c1` half is key-switched from
    /// `τ_g(s)` back to `s` with the `(g, level)` rotation key. Scale and
    /// level are unchanged; on the canonical embedding this rotates the
    /// slot vector (and `g = 2N − 1` conjugates it).
    ///
    /// Both components leave the evaluation domain in one batched inverse
    /// transform. On a resident context a host-fresh input (say, one
    /// encrypted on a CPU context) is uploaded first, one upload per
    /// component, so every step runs on the device.
    ///
    /// # Panics
    ///
    /// Panics if no rotation key was generated for `(g, level)`.
    pub fn rotate(&self, ct: &Ciphertext, g: u64, rtk: &RotationKeys) -> Ciphertext {
        let level = ct.level();
        let g = g % (2 * self.params.n() as u64);
        let entries = rtk
            .entries_for(g, level)
            .unwrap_or_else(|| panic!("no rotation key for (g={g}, level={level})"));
        self.with_pooled_evaluator(|ev| {
            let (mut c0, mut c1) = self.components(ev, ct);
            ev.inverse_polys(&mut [&mut c0, &mut c1]);
            ev.automorphism(&mut c0, g);
            ev.automorphism(&mut c1, g);
            // The key switch accumulates straight into the transformed
            // `c0` (no separate add) and takes `c1` in coefficient form
            // (its internal inverse transform is a no-op here).
            ev.to_evaluation(&mut c0);
            let mut r1 = self.zero_acc(ev, level);
            self.key_switch(ev, &c1, entries, level, [&mut c0, &mut r1], [&[], &[]]);
            Ciphertext {
                c0,
                c1: r1,
                scale: ct.scale,
            }
        })
    }

    /// Fallible [`HeContext::rotate`] with PR 7's typed-error contract:
    /// the fault-gated transform/automorphism steps run through `try_*`
    /// variants, errors classify into transient/fatal/OOM, and a
    /// non-transient fault quarantines the pool member (rotation keys are
    /// context-owned, so they survive quarantine + re-fork untouched).
    /// The key switch, with `c0` folded into its accumulation, runs
    /// through the infallible ops and draws no fault.
    ///
    /// # Errors
    ///
    /// Any [`BackendError`] from the underlying evaluator ops.
    pub fn try_rotate(
        &self,
        ct: &Ciphertext,
        g: u64,
        rtk: &RotationKeys,
    ) -> Result<Ciphertext, BackendError> {
        let level = ct.level();
        let g = g % (2 * self.params.n() as u64);
        let entries = rtk
            .entries_for(g, level)
            .unwrap_or_else(|| panic!("no rotation key for (g={g}, level={level})"));
        self.try_with_pooled_evaluator(|ev| {
            let (mut c0, mut c1) = self.components(ev, ct);
            ev.try_to_coefficient(&mut c0)?;
            ev.try_to_coefficient(&mut c1)?;
            ev.try_automorphism(&mut c0, g)?;
            ev.try_automorphism(&mut c1, g)?;
            ev.try_to_evaluation(&mut c0)?;
            let mut r1 = self.zero_acc(ev, level);
            self.key_switch(ev, &c1, entries, level, [&mut c0, &mut r1], [&[], &[]]);
            Ok(Ciphertext {
                c0,
                c1: r1,
                scale: ct.scale,
            })
        })
    }

    /// Mod-raise: re-embed a level-1 ciphertext into the first `to_level`
    /// primes by a centered lift mod `p₀` — the bootstrapping entry
    /// point. The plaintext underneath becomes `m + q₀·I` for a small
    /// integer polynomial `I`; the subsequent homomorphic mod-reduction
    /// (`EvalMod`) removes the `q₀·I` term. Scale is unchanged.
    ///
    /// On a resident context a host-fresh input (say, one encrypted on a
    /// CPU context) is uploaded first, one level-1 row per component, so
    /// the raise and every operation on its output run on the device:
    /// one inverse transform, one centered base conversion and one
    /// forward transform, each over both components.
    ///
    /// # Panics
    ///
    /// Panics unless the ciphertext is at level 1 and `to_level` is in
    /// range.
    pub fn mod_raise(&self, ct: &Ciphertext, to_level: usize) -> Ciphertext {
        assert_eq!(ct.level(), 1, "mod_raise input must be at level 1");
        assert!(to_level <= self.params.levels, "level out of range");
        self.with_pooled_evaluator(|ev| {
            let (mut c0, mut c1) = self.components(ev, ct);
            ev.inverse_polys(&mut [&mut c0, &mut c1]);
            let mut raised = ev.mod_raise(&mut [&mut c0, &mut c1], to_level);
            let (mut r0, mut r1) = (raised.remove(0), raised.remove(0));
            ev.forward_polys(&mut [&mut r0, &mut r1]);
            Ciphertext {
                c0: r0,
                c1: r1,
                scale: ct.scale,
            }
        })
    }

    /// Copies of `ct`'s components for an op to work on, made resident
    /// first on a resident context, so a host-fresh input crosses the bus
    /// once per component instead of being staged through host batches.
    fn components(&self, ev: &mut Evaluator, ct: &Ciphertext) -> (RnsPoly, RnsPoly) {
        let (mut c0, mut c1) = (ct.c0.clone(), ct.c1.clone());
        if self.resident {
            ev.make_resident(&mut c0);
            ev.make_resident(&mut c1);
        }
        (c0, c1)
    }

    /// Drop RNS moduli down to `target` level with no scale change (exact
    /// basis truncation) — aligns operand levels before an add/multiply.
    ///
    /// # Panics
    ///
    /// Panics if `target` is 0 or above the current level.
    pub fn drop_to_level(&self, ct: &Ciphertext, target: usize) -> Ciphertext {
        self.with_pooled_evaluator(|ev| {
            let mut c0 = ct.c0.clone();
            let mut c1 = ct.c1.clone();
            ev.drop_level(&mut c0, target);
            ev.drop_level(&mut c1, target);
            Ciphertext {
                c0,
                c1,
                scale: ct.scale,
            }
        })
    }

    /// Encode real values at an explicit scale (instead of the parameter
    /// default) — scale bookkeeping for pipelines like `EvalMod` that
    /// add plaintext constants to ciphertexts at drifted scales.
    ///
    /// # Panics
    ///
    /// Panics if more than `N` values are supplied or any scaled value
    /// overflows the 63-bit signed range.
    pub fn encode_with_scale(&self, values: &[f64], scale: f64) -> Plaintext {
        assert!(values.len() <= self.params.n(), "too many values");
        let coeffs: Vec<i64> = values
            .iter()
            .map(|&v| {
                let scaled = (v * scale).round();
                assert!(
                    scaled.abs() < (1i64 << 62) as f64,
                    "encoded value overflows"
                );
                scaled as i64
            })
            .collect();
        Plaintext {
            m: RnsPoly::from_i64_coeffs(&self.ring, &coeffs),
            scale,
        }
    }

    /// Truncate a plaintext to `level`, upload it (on residency-preferring
    /// backends) and forward-transform it once — the cached-diagonal form
    /// the homomorphic DFT stages multiply by repeatedly. A prepared
    /// plaintext passed to [`HeContext::multiply_plain_raw`],
    /// [`HeContext::multiply_plain`], [`HeContext::multiply_plain_sum`] or
    /// [`HeContext::add_plain`] at its level is used as-is: no per-call
    /// truncation, upload, or NTT.
    pub fn prepare_plaintext(&self, pt: &Plaintext, level: usize) -> Plaintext {
        let mut m = pt.m.truncated(level);
        self.with_pooled_evaluator(|ev| {
            if self.resident {
                ev.make_resident(&mut m);
            }
            ev.to_evaluation(&mut m);
        });
        Plaintext { m, scale: pt.scale }
    }

    /// `pt`'s message at `level` in evaluation form: the plaintext's own
    /// polynomial when it was prepared at that level
    /// ([`HeContext::prepare_plaintext`]), else a truncated, uploaded (on
    /// resident contexts) and transformed copy.
    fn plain_at<'a>(
        &self,
        ev: &mut Evaluator,
        pt: &'a Plaintext,
        level: usize,
    ) -> Cow<'a, RnsPoly> {
        if pt.m.level() == level && pt.m.repr() == Representation::Evaluation {
            return Cow::Borrowed(&pt.m);
        }
        let mut m = pt.m.truncated(level);
        if self.resident {
            ev.make_resident(&mut m);
        }
        ev.to_evaluation(&mut m);
        Cow::Owned(m)
    }

    /// A zero evaluation-form accumulator at `level`: born on the device
    /// (no transfer) on a resident context, on the host otherwise.
    fn zero_acc(&self, ev: &mut Evaluator, level: usize) -> RnsPoly {
        if self.resident {
            ev.zero_resident(level, Representation::Evaluation)
        } else {
            RnsPoly::zero_with_repr(&self.ring, level, Representation::Evaluation)
        }
    }

    /// Plaintext multiplication **without** the trailing rescale: the
    /// product keeps the ciphertext's level and multiplies the scales.
    /// A sum of such products at one scale, rescaled once, is
    /// [`HeContext::multiply_plain_sum`] — the baby-step/giant-step DFT
    /// stages' shape, which fuses the whole sum.
    pub fn multiply_plain_raw(&self, ct: &Ciphertext, pt: &Plaintext) -> Ciphertext {
        let level = ct.level();
        self.with_pooled_evaluator(|ev| {
            let m = self.plain_at(ev, pt, level);
            let mut c0 = ct.c0.clone();
            ev.mul_pointwise(&mut c0, &m);
            let mut c1 = ct.c1.clone();
            ev.mul_pointwise(&mut c1, &m);
            Ciphertext {
                c0,
                c1,
                scale: ct.scale * pt.scale,
            }
        })
    }

    /// The plaintext-product sum `Σ_k ct_k ⊙ pt_k` at one level and one
    /// product scale, **without** a rescale: the inner sum of a
    /// baby-step/giant-step DFT stage. Each component is one
    /// [`Evaluator::fma`], so on a device-resident context the whole sum
    /// is 2 launches, where [`HeContext::multiply_plain_raw`] +
    /// [`HeContext::add`] per term spend 2 per product and 2 per add.
    /// The bits are that chain's: sums mod `p` are exact in any order.
    ///
    /// # Panics
    ///
    /// Panics on an empty sum, or if the terms' levels or product scales
    /// differ.
    pub fn multiply_plain_sum(&self, terms: &[(&Ciphertext, &Plaintext)]) -> Ciphertext {
        let (ct, pt) = terms.first().expect("empty plain-product sum");
        let (level, scale) = (ct.level(), ct.scale * pt.scale);
        for (ct, pt) in terms {
            assert_eq!(ct.level(), level, "level mismatch");
            let s = ct.scale * pt.scale;
            assert!(
                (s / scale - 1.0).abs() < 1e-9,
                "scale mismatch: {s} vs {scale}"
            );
        }
        self.with_pooled_evaluator(|ev| {
            let ms: Vec<Cow<'_, RnsPoly>> = terms
                .iter()
                .map(|(_, pt)| self.plain_at(ev, pt, level))
                .collect();
            let mut sum = |part: fn(&Ciphertext) -> &RnsPoly| {
                let mut acc = self.zero_acc(ev, level);
                let products: Vec<_> = terms
                    .iter()
                    .zip(&ms)
                    .map(|((ct, _), m)| (FmaFactor::Poly(part(ct)), &**m))
                    .collect();
                ev.fma(&mut acc, &products);
                acc
            };
            Ciphertext {
                c0: sum(|ct| &ct.c0),
                c1: sum(|ct| &ct.c1),
                scale,
            }
        })
    }

    /// Add a plaintext to a ciphertext (only the `c0` component moves).
    ///
    /// # Panics
    ///
    /// Panics if the scales are incompatible (encode the constant at
    /// exactly `ct.scale()` — see [`HeContext::encode_with_scale`]).
    pub fn add_plain(&self, ct: &Ciphertext, pt: &Plaintext) -> Ciphertext {
        assert!(
            (ct.scale / pt.scale - 1.0).abs() < 1e-9,
            "scale mismatch: {} vs {}",
            ct.scale,
            pt.scale
        );
        let level = ct.level();
        self.with_pooled_evaluator(|ev| {
            let m = self.plain_at(ev, pt, level);
            let mut c0 = ct.c0.clone();
            ev.add_assign(&mut c0, &m);
            Ciphertext {
                c0,
                c1: ct.c1.clone(),
                scale: ct.scale,
            }
        })
    }

    /// Add the real constant `v` to every slot (encoded at exactly the
    /// ciphertext's scale, so no scale adjustment is needed).
    pub fn add_const(&self, ct: &Ciphertext, v: f64) -> Ciphertext {
        self.add_plain(ct, &self.encode_with_scale(&[v], ct.scale))
    }

    /// Homomorphic negation.
    pub fn negate(&self, ct: &Ciphertext) -> Ciphertext {
        self.with_pooled_evaluator(|ev| {
            let mut c0 = ct.c0.clone();
            ev.negate(&mut c0);
            let mut c1 = ct.c1.clone();
            ev.negate(&mut c1);
            Ciphertext {
                c0,
                c1,
                scale: ct.scale,
            }
        })
    }

    /// Rescale in place: divide by the last active prime and drop it —
    /// the public form of the rescale every `multiply` already performs,
    /// for pipelines that defer it across a sum of raw plain-products.
    /// Both components rescale together in the evaluation domain
    /// ([`Evaluator::rescale_polys`]): on a device, three launches below
    /// 256 points.
    ///
    /// # Panics
    ///
    /// Panics at level 1 (no prime left to drop).
    pub fn rescale(&self, ct: &mut Ciphertext) {
        assert!(ct.level() >= 2, "no prime left to rescale into");
        self.with_pooled_evaluator(|ev| self.rescale_in_place(ev, ct));
    }

    /// Encode real values as scaled integer coefficients at the
    /// parameter scale (*coefficient* encoding — see the crate docs for
    /// semantics).
    ///
    /// # Panics
    ///
    /// Panics if more than `N` values are supplied or any scaled value
    /// overflows the 63-bit signed range.
    pub fn encode(&self, values: &[f64]) -> Plaintext {
        self.encode_with_scale(values, self.params.scale())
    }

    /// Decode the first `k` coefficients back to reals (`k` = number of
    /// coefficients that were encoded; here we return all of them). An
    /// explicit sync point: device-resident plaintexts are downloaded
    /// here.
    pub fn decode(&self, pt: &Plaintext) -> Vec<f64> {
        let mut m = pt.m.clone();
        self.with_pooled_evaluator(|ev| ev.to_coefficient(&mut m));
        m.sync();
        (0..self.params.n())
            .map(|i| {
                let v = m
                    .coefficient_centered(&self.ring, i)
                    .expect("plaintext coefficients fit i128");
                v as f64 / pt.scale
            })
            .collect()
    }

    /// Encrypt under the public key. On a residency-preferring backend
    /// the fresh samples are uploaded (the chain's initial upload) and
    /// the resulting ciphertext lives on the device.
    pub fn encrypt<R: Rng + RngExt>(
        &self,
        pt: &Plaintext,
        pk: &PublicKey,
        rng: &mut R,
    ) -> Ciphertext {
        let ring = &self.ring;
        let eta = self.params.error_eta;
        let mut u = sampling::ternary_poly(ring, rng);
        let mut e0 = sampling::error_poly(ring, eta, rng);
        let mut e1 = sampling::error_poly(ring, eta, rng);
        let mut m = pt.m.clone();
        self.with_pooled_evaluator(|ev| {
            if self.resident {
                ev.make_resident(&mut u);
                ev.make_resident(&mut e0);
                ev.make_resident(&mut e1);
                ev.make_resident(&mut m);
            }
            // All four forward transforms batched through the backend.
            ev.forward_polys(&mut [&mut u, &mut e0, &mut e1, &mut m]);

            let mut c0 = pk.b.clone();
            ev.mul_pointwise(&mut c0, &u);
            ev.add_assign(&mut c0, &e0);
            ev.add_assign(&mut c0, &m);
            let mut c1 = pk.a.clone();
            ev.mul_pointwise(&mut c1, &u);
            ev.add_assign(&mut c1, &e1);
            Ciphertext {
                c0,
                c1,
                scale: pt.scale,
            }
        })
    }

    /// Decrypt with the secret key. An explicit sync point: the returned
    /// plaintext is host-fresh regardless of where the ciphertext lived.
    pub fn decrypt(&self, ct: &Ciphertext, sk: &SecretKey) -> Plaintext {
        let level = ct.level();
        self.with_pooled_evaluator(|ev| {
            let mut s = sk.s_eval.truncated(level);
            if self.resident {
                ev.make_resident(&mut s);
            }
            let mut m = ct.c1.clone();
            ev.mul_pointwise(&mut m, &s);
            ev.add_assign(&mut m, &ct.c0);
            ev.to_coefficient(&mut m);
            m.sync();
            Plaintext { m, scale: ct.scale }
        })
    }

    /// Homomorphic addition (device-side for resident ciphertexts).
    ///
    /// # Panics
    ///
    /// Panics on level mismatch or incompatible scales.
    pub fn add(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        assert_eq!(a.level(), b.level(), "level mismatch");
        assert!(
            (a.scale / b.scale - 1.0).abs() < 1e-9,
            "scale mismatch: {} vs {}",
            a.scale,
            b.scale
        );
        self.with_pooled_evaluator(|ev| {
            let mut c0 = a.c0.clone();
            ev.add_assign(&mut c0, &b.c0);
            let mut c1 = a.c1.clone();
            ev.add_assign(&mut c1, &b.c1);
            Ciphertext {
                c0,
                c1,
                scale: a.scale,
            }
        })
    }

    /// Homomorphic subtraction.
    ///
    /// # Panics
    ///
    /// Panics on level mismatch or incompatible scales.
    pub fn sub(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        assert_eq!(a.level(), b.level(), "level mismatch");
        assert!((a.scale / b.scale - 1.0).abs() < 1e-9, "scale mismatch");
        self.with_pooled_evaluator(|ev| {
            let mut c0 = a.c0.clone();
            ev.sub_assign(&mut c0, &b.c0);
            let mut c1 = a.c1.clone();
            ev.sub_assign(&mut c1, &b.c1);
            Ciphertext {
                c0,
                c1,
                scale: a.scale,
            }
        })
    }

    /// Plaintext multiplication (no relinearization needed), then a
    /// rescale: [`HeContext::multiply_plain_raw`] followed by
    /// [`HeContext::rescale`], so a prepared plaintext
    /// ([`HeContext::prepare_plaintext`]) is used as-is.
    ///
    /// # Panics
    ///
    /// Panics if the ciphertext is at level 1 (nothing left to rescale).
    pub fn multiply_plain(&self, ct: &Ciphertext, pt: &Plaintext) -> Ciphertext {
        let mut out = self.multiply_plain_raw(ct, pt);
        self.rescale(&mut out);
        out
    }

    /// Homomorphic multiplication: tensor, relinearize, rescale. For
    /// device-resident ciphertexts the whole chain — including the gadget
    /// digit decomposition and every digit NTT — runs on the device with
    /// zero host↔device transfers. Only `a1·b1` is a product of its own:
    /// the other tensor terms fold into the key switch's two
    /// multiply-accumulates, `c0 = a0·b0 + Σ digit·key_b` and
    /// `c1 = a0·b1 + a1·b0 + Σ digit·key_a`, so a device multiply is one
    /// pointwise and two FMA launches around the digit transforms, with
    /// no add.
    ///
    /// # Panics
    ///
    /// Panics on level mismatch or at level 1 (no prime to rescale into).
    pub fn multiply(&self, a: &Ciphertext, b: &Ciphertext, rk: &RelinKeys) -> Ciphertext {
        let level = a.level();
        assert_eq!(level, b.level(), "level mismatch");
        assert!(level >= 2, "no prime left to rescale into");
        self.with_pooled_evaluator(|ev| {
            let mut e2 = a.c1.clone();
            ev.mul_pointwise(&mut e2, &b.c1);
            let mut c0 = self.zero_acc(ev, level);
            let mut c1 = self.zero_acc(ev, level);
            let (a0, a1) = (FmaFactor::Poly(&a.c0), FmaFactor::Poly(&a.c1));
            self.key_switch(
                ev,
                &e2,
                &rk.entries[level - 1],
                level,
                [&mut c0, &mut c1],
                [&[(a0, &b.c0)], &[(a0, &b.c1), (a1, &b.c0)]],
            );
            let mut out = Ciphertext {
                c0,
                c1,
                scale: a.scale * b.scale,
            };
            self.rescale_in_place(ev, &mut out);
            out
        })
    }

    /// Gadget key switch of `e2` (`level` primes) under an `entries[j][d]`
    /// key set: relinearization passes `B^d·g_j·s²` encryptions, rotation
    /// `B^d·g_j·τ_g(s)` encryptions ([`crate::keys::RotationKeys`]).
    ///
    /// The switched pair lands in caller-supplied evaluation-form
    /// accumulators, `acc[0] += Σ extra[0] + Σ_k digit_k·b_k` and
    /// `acc[1] += Σ extra[1] + Σ_k digit_k·a_k`, where `extra[i]` holds
    /// product terms to fold into the same multiply-accumulate: rotation
    /// passes its permuted `c0` as `acc[0]` and no extra terms,
    /// multiplication zero accumulators and its tensor terms.
    ///
    /// One path on every backend, batched the way the paper batches
    /// kernel launches: [`Evaluator::decompose`] splits `e2` into its
    /// `level·digits` gadget digits and forward-transforms all of them in
    /// one call (on the device when `e2` is resident there, on the host
    /// otherwise), and each accumulator's whole inner product, the extra
    /// terms included, is one multi-term [`Evaluator::fma`] — on a device
    /// two launches per key switch, not one per digit, product or add.
    fn key_switch(
        &self,
        ev: &mut Evaluator,
        e2: &RnsPoly,
        entries: &[Vec<RelinEntry>],
        level: usize,
        [acc0, acc1]: [&mut RnsPoly; 2],
        extra: [&[(FmaFactor<'_>, &RnsPoly)]; 2],
    ) {
        let digits = self.params.gadget_digits();
        let mut e2c = e2.clone();
        // On a residency-preferring backend the key entries live on the
        // device, so a host-submitted operand is uploaded first and its
        // digits never leave the device.
        if ev.prefers_residency() {
            ev.make_resident(&mut e2c);
        }
        ev.to_coefficient(&mut e2c);
        let decomposed = ev.decompose(&mut e2c, digits, self.params.gadget_bits);
        // Digit `k = j·digits + d` pairs with key entry `(j, d)`.
        let keys = entries[..level].iter().flat_map(|row| &row[..digits]);
        let (b, a): (Vec<&RnsPoly>, Vec<&RnsPoly>) = keys.map(|e| (&e.b, &e.a)).unzip();
        for (acc, extra, keys) in [(acc0, extra[0], b), (acc1, extra[1], a)] {
            let digit_terms = keys
                .into_iter()
                .enumerate()
                .map(|(k, key)| (decomposed.factor(k), key));
            let terms: Vec<_> = extra.iter().copied().chain(digit_terms).collect();
            ev.fma(acc, &terms);
        }
    }

    /// Exact RNS rescale: divide by the last active prime and drop it.
    /// Both components rescale together in the evaluation domain — only
    /// their dropped rows cross domains ([`Evaluator::rescale_polys`]) —
    /// and resident ciphertexts rescale on the device.
    fn rescale_in_place(&self, ev: &mut Evaluator, ct: &mut Ciphertext) {
        let level = ct.level();
        let dropped = self.ring.basis().primes()[level - 1] as f64;
        ev.rescale_polys(&mut [&mut ct.c0, &mut ct.c1]);
        ct.scale /= dropped;
    }

    /// Rough upper bound on the coefficient magnitude a level can hold:
    /// `log2(Q_level / 2)`. Useful for noise-budget style diagnostics.
    pub fn capacity_bits(&self, level: usize) -> f64 {
        let q = ntt_math::BigUint::product(&self.ring.basis().primes()[..level]);
        q.log2() - 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::seeded_rng;

    fn ctx() -> (HeContext, KeySet) {
        let params = HeLiteParams {
            log_n: 8,
            prime_bits: 50,
            levels: 3,
            scale_bits: 46,
            gadget_bits: 10,
            error_eta: 4,
        };
        let ctx = HeContext::new(params).unwrap();
        let keys = ctx.keygen(&mut seeded_rng(42));
        (ctx, keys)
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let (ctx, keys) = ctx();
        let mut rng = seeded_rng(1);
        let values = [1.25, -2.5, 3.75, 0.0, 100.0];
        let pt = ctx.encode(&values);
        let ct = ctx.encrypt(&pt, &keys.public, &mut rng);
        let out = ctx.decode(&ctx.decrypt(&ct, &keys.secret));
        for (i, &v) in values.iter().enumerate() {
            assert!((out[i] - v).abs() < 1e-6, "slot {i}: {} vs {v}", out[i]);
        }
    }

    #[test]
    fn homomorphic_addition() {
        let (ctx, keys) = ctx();
        let mut rng = seeded_rng(2);
        let a = ctx.encrypt(&ctx.encode(&[1.5, 2.0]), &keys.public, &mut rng);
        let b = ctx.encrypt(&ctx.encode(&[0.25, -1.0]), &keys.public, &mut rng);
        let sum = ctx.add(&a, &b);
        let out = ctx.decode(&ctx.decrypt(&sum, &keys.secret));
        assert!((out[0] - 1.75).abs() < 1e-6);
        assert!((out[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn homomorphic_subtraction() {
        let (ctx, keys) = ctx();
        let mut rng = seeded_rng(3);
        let a = ctx.encrypt(&ctx.encode(&[5.0]), &keys.public, &mut rng);
        let b = ctx.encrypt(&ctx.encode(&[1.5]), &keys.public, &mut rng);
        let out = ctx.decode(&ctx.decrypt(&ctx.sub(&a, &b), &keys.secret));
        assert!((out[0] - 3.5).abs() < 1e-6);
    }

    #[test]
    fn homomorphic_multiplication_constants() {
        let (ctx, keys) = ctx();
        let mut rng = seeded_rng(4);
        let a = ctx.encrypt(&ctx.encode(&[3.0]), &keys.public, &mut rng);
        let b = ctx.encrypt(&ctx.encode(&[-4.0]), &keys.public, &mut rng);
        let prod = ctx.multiply(&a, &b, &keys.relin);
        assert_eq!(prod.level(), 2);
        let out = ctx.decode(&ctx.decrypt(&prod, &keys.secret));
        assert!((out[0] + 12.0).abs() < 1e-2, "got {}", out[0]);
    }

    #[test]
    fn multiplication_is_negacyclic_convolution() {
        // Coefficient encoding: (1 + 2x) * (3 + x) = 3 + 7x + 2x^2.
        let (ctx, keys) = ctx();
        let mut rng = seeded_rng(5);
        let a = ctx.encrypt(&ctx.encode(&[1.0, 2.0]), &keys.public, &mut rng);
        let b = ctx.encrypt(&ctx.encode(&[3.0, 1.0]), &keys.public, &mut rng);
        let prod = ctx.multiply(&a, &b, &keys.relin);
        let out = ctx.decode(&ctx.decrypt(&prod, &keys.secret));
        assert!((out[0] - 3.0).abs() < 1e-2);
        assert!((out[1] - 7.0).abs() < 1e-2);
        assert!((out[2] - 2.0).abs() < 1e-2);
    }

    #[test]
    fn multiply_plain_rescales() {
        let (ctx, keys) = ctx();
        let mut rng = seeded_rng(6);
        let ct = ctx.encrypt(&ctx.encode(&[2.0]), &keys.public, &mut rng);
        let out_ct = ctx.multiply_plain(&ct, &ctx.encode(&[5.0]));
        assert_eq!(out_ct.level(), ct.level() - 1);
        let out = ctx.decode(&ctx.decrypt(&out_ct, &keys.secret));
        assert!((out[0] - 10.0).abs() < 1e-2, "got {}", out[0]);
    }

    #[test]
    fn two_chained_multiplications() {
        let (ctx, keys) = ctx();
        let mut rng = seeded_rng(7);
        let a = ctx.encrypt(&ctx.encode(&[2.0]), &keys.public, &mut rng);
        let b = ctx.encrypt(&ctx.encode(&[3.0]), &keys.public, &mut rng);
        let ab = ctx.multiply(&a, &b, &keys.relin); // level 2
        let c = ctx.encrypt(&ctx.encode(&[1.0]), &keys.public, &mut rng);
        // Bring c to ab's level by plain-multiplying with 1.0.
        let c_dropped = ctx.multiply_plain(&c, &ctx.encode(&[1.0]));
        assert_eq!(c_dropped.level(), ab.level());
        let abc = ctx.multiply(&ab, &c_dropped, &keys.relin);
        assert_eq!(abc.level(), 1);
        let out = ctx.decode(&ctx.decrypt(&abc, &keys.secret));
        assert!((out[0] - 6.0).abs() < 0.1, "got {}", out[0]);
    }

    #[test]
    fn rotation_applies_automorphism_to_plaintext() {
        let (ctx, keys) = ctx();
        let mut rng = seeded_rng(8);
        let values = [1.0, 2.0, 3.0, 4.0];
        let ct = ctx.encrypt(&ctx.encode(&values), &keys.public, &mut rng);
        let n = ctx.params().n();
        for g in [5u64, 25, 2 * n as u64 - 1] {
            let rtk = ctx.keygen_rotation(&keys.secret, &[g], &[ct.level()], &mut rng);
            let rot = ctx.rotate(&ct, g, &rtk);
            assert_eq!(rot.level(), ct.level());
            let out = ctx.decode(&ctx.decrypt(&rot, &keys.secret));
            // Oracle: apply X → X^g to the encoded coefficients directly.
            let mut expected = vec![0.0; n];
            for (i, &v) in values.iter().enumerate() {
                let idx = ((i as u64 * g) % (2 * n as u64)) as usize;
                if idx < n {
                    expected[idx] += v;
                } else {
                    expected[idx - n] -= v;
                }
            }
            for (i, &e) in expected.iter().enumerate() {
                assert!(
                    (out[i] - e).abs() < 1e-2,
                    "g={g} coeff {i}: {} vs {e}",
                    out[i]
                );
            }
        }
    }

    #[test]
    fn mod_raise_preserves_message_mod_q0() {
        let (ctx, keys) = ctx();
        let mut rng = seeded_rng(9);
        let values = [0.5, -1.25, 2.0];
        let ct = ctx.encrypt(&ctx.encode(&values), &keys.public, &mut rng);
        let low = ctx.drop_to_level(&ct, 1);
        let raised = ctx.mod_raise(&low, ctx.params().levels);
        assert_eq!(raised.level(), ctx.params().levels);
        // Decrypting the raised ciphertext gives m + q0·I; the small
        // coefficients we encoded carry no I term, so they come back
        // exactly (the q0·I part only shows up when coefficients are
        // near q0/2 — i.e. the secret-key wrap terms EvalMod removes).
        let out = ctx.decode(&ctx.decrypt(&raised, &keys.secret));
        for (i, &v) in values.iter().enumerate() {
            let dist = (out[i] - v).abs();
            let q0 = ctx.ring().basis().primes()[0] as f64 / ctx.params().scale();
            let wrapped = (dist % q0).min(q0 - dist % q0);
            assert!(wrapped < 1e-2, "coeff {i}: {} vs {v}", out[i]);
        }
    }

    #[test]
    fn capacity_decreases_with_level() {
        let (ctx, _) = ctx();
        assert!(ctx.capacity_bits(3) > ctx.capacity_bits(2));
        assert!(ctx.capacity_bits(2) > ctx.capacity_bits(1));
    }
}
