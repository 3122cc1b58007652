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
//!   (decrypt/decode, [`Ciphertext::sync`]). What an op creates goes
//!   where the key or ciphertext it combines with lives, so host copies
//!   stay on the host.

use crate::ciphertext::{Ciphertext, Plaintext};
use crate::keys::{KeySet, PublicKey, RelinEntry, RelinKeys, RotationKeys, SecretKey};
use crate::params::HeLiteParams;
use crate::sampling;
use ntt_core::backend::{
    BackendError, CpuBackend, Evaluator, FaultClass, FmaFactor, NttBackend, TransferStats,
};
use ntt_core::poly::{Representation, Residency, RingError, RnsPoly, RnsRing};
use rand::{Rng, RngExt};
use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;

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
    /// The open [`HeContext::gated`] scopes, one per thread at most.
    scopes: Mutex<HashMap<ThreadId, Parked>>,
    /// Evaluators ever created (pool high-water mark).
    created: AtomicUsize,
    /// Pool members dropped after a non-transient fault (each one is
    /// replaced by a fresh fork, so capacity survives the fault).
    quarantined: AtomicUsize,
    /// Transient gate failures the members of closed scopes re-drew in
    /// place.
    op_retries: AtomicU64,
}

/// One thread's open [`HeContext::gated`] scope.
enum Parked {
    /// No checkout yet: the scope's first one arms a member.
    Vacant,
    /// The armed member, between checkouts.
    Idle(Evaluator),
    /// The armed member, checked out by a running operation.
    InUse,
}

/// Closes a thread's scope on every exit path: a panic inside it drops
/// the armed member, like a panic inside a checkout does.
struct ScopeGuard<'a>(&'a EvalPool);

impl Drop for ScopeGuard<'_> {
    fn drop(&mut self) {
        let parked = lock(&self.0.scopes).remove(&std::thread::current().id());
        drop(parked);
    }
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

/// Make `fresh` — a sample, truncated plaintext or truncated secret an
/// op creates — resident on a residency-preferring `ev` when the key or
/// ciphertext it combines with, `like`, is resident. A resident operand
/// keeps its whole op on the device; a host-only one keeps it in host
/// batches, so a group of host copies stages once per stage.
fn follow(ev: &mut Evaluator, fresh: &mut RnsPoly, like: &RnsPoly) {
    if ev.prefers_residency() && like.residency() != Residency::HostOnly {
        ev.make_resident(fresh);
    }
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
            scopes: Mutex::new(HashMap::new()),
            created: AtomicUsize::new(0),
            quarantined: AtomicUsize::new(0),
            op_retries: AtomicU64::new(0),
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
    fn pop_or_fork(&self) -> Evaluator {
        let idle = lock(&self.pool.idle).pop();
        idle.unwrap_or_else(|| self.fork_evaluator())
    }

    /// Check out an evaluator: inside an open [`HeContext::gated`] scope
    /// of the calling thread its armed member (`true`), armed on the
    /// scope's first checkout; otherwise a pool member (`false`). A
    /// checkout nested in a running one takes a pool member.
    fn checkout(&self) -> (Evaluator, bool) {
        let parked = lock(&self.pool.scopes)
            .get_mut(&std::thread::current().id())
            .map(|slot| std::mem::replace(slot, Parked::InUse));
        match parked {
            Some(Parked::Idle(ev)) => (ev, true),
            Some(Parked::Vacant) => {
                let mut ev = self.pop_or_fork();
                ev.arm();
                (ev, true)
            }
            Some(Parked::InUse) | None => (self.pop_or_fork(), false),
        }
    }

    /// Return a checked-out evaluator to its scope or to the pool.
    fn checkin(&self, ev: Evaluator, scoped: bool) {
        if scoped {
            let mut scopes = lock(&self.pool.scopes);
            let slot = scopes.get_mut(&std::thread::current().id());
            *slot.expect("the scope outlives its checkouts") = Parked::Idle(ev);
        } else {
            lock(&self.pool.idle).push(ev);
        }
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
        let (mut ev, scoped) = self.checkout();
        let r = f(&mut ev);
        self.checkin(ev, scoped);
        r
    }

    /// Run `f` **armed**: every checkout `f` takes from this context on
    /// the calling thread gets one pool member, armed
    /// ([`Evaluator::arm`]) for the whole scope. Return `f`'s result, or
    /// the first fault one of the member's backend ops or allocations
    /// hit. A transient gate failure is re-drawn in place up to three
    /// times before it counts; after a fault that counts every further op
    /// is skipped, so on `Err` nothing `f` computed may be used or
    /// decoded. Its inputs are untouched, and the identical call can be
    /// retried.
    ///
    /// The scope is the armed form of every scheme operation:
    /// `ctx.gated(|| ctx.rotate(ct, g, rtk))` is an armed rotation, and
    /// a whole bootstrap runs on one armed member the same way. The
    /// member is checked out at the scope's first checkout (an `f` that
    /// panics before it loses none). A checkout nested inside a running
    /// one, and any other thread, takes an ordinary pool member. A nested
    /// scope on the same thread shares the open one and returns its latch
    /// as it stands (`Ok` while an enclosing operation holds the member;
    /// the open scope reports that operation's fault).
    ///
    /// When the scope closes, a healthy outcome — `Ok`, or an `Err`
    /// whose class leaves the executor usable
    /// ([transient](BackendError::is_transient) faults and deadline
    /// expiries) — returns the member to the pool. A fatal/OOM fault
    /// **quarantines** the member: it is dropped (its stream and device
    /// scratch are released) and a fresh fork of the prototype takes its
    /// place in the idle set, so pool capacity is unchanged and no later
    /// checkout inherits a wedged executor. The member's in-place
    /// re-draws and the quarantines are tallied
    /// ([`HeContext::op_retry_count`], [`HeContext::quarantined_count`]).
    ///
    /// # Errors
    ///
    /// The first [`BackendError`] that latched.
    pub fn gated<R>(&self, f: impl FnOnce() -> R) -> Result<R, BackendError> {
        let thread = std::thread::current().id();
        let opened = match lock(&self.pool.scopes).entry(thread) {
            Entry::Vacant(slot) => {
                slot.insert(Parked::Vacant);
                true
            }
            Entry::Occupied(_) => false,
        };
        if !opened {
            let r = f();
            let latch = match lock(&self.pool.scopes).get_mut(&thread) {
                Some(Parked::Idle(ev)) => ev.gated(|_| ()),
                _ => Ok(()),
            };
            return latch.map(|()| r);
        }
        let guard = ScopeGuard(&self.pool);
        let r = f();
        let parked = lock(&self.pool.scopes).remove(&thread);
        drop(guard);
        let Some(Parked::Idle(mut ev)) = parked else {
            return Ok(r);
        };
        let latch = ev.disarm();
        self.pool
            .op_retries
            .fetch_add(ev.op_retries(), Ordering::Relaxed);
        match &latch {
            Err(e) if !e.is_transient() && e.class() != FaultClass::Deadline => {
                drop(ev);
                self.pool.quarantined.fetch_add(1, Ordering::Relaxed);
                let fresh = self.fork_evaluator();
                lock(&self.pool.idle).push(fresh);
            }
            _ => lock(&self.pool.idle).push(ev),
        }
        latch.map(|()| r)
    }

    /// [`HeContext::with_pooled_evaluator`] on an **armed** checkout: `f`
    /// inside a [`HeContext::gated`] scope, under its quarantine rules.
    ///
    /// # Errors
    ///
    /// The first [`BackendError`] of `f`'s backend ops.
    pub fn try_with_pooled_evaluator<R>(
        &self,
        f: impl FnOnce(&mut Evaluator) -> R,
    ) -> Result<R, BackendError> {
        self.gated(|| self.with_pooled_evaluator(f))
    }

    /// Evaluators created so far (the pool's high-water mark — grows with
    /// the maximum number of overlapping operations, plus one per
    /// quarantine replacement).
    pub fn evaluator_count(&self) -> usize {
        self.pool.created.load(Ordering::Relaxed)
    }

    /// Pool members quarantined (dropped and re-forked) after a
    /// non-transient fault — see [`HeContext::gated`].
    pub fn quarantined_count(&self) -> usize {
        self.pool.quarantined.load(Ordering::Relaxed)
    }

    /// Transient gate failures re-drawn in place by the members of
    /// closed [`HeContext::gated`] scopes.
    pub fn op_retry_count(&self) -> u64 {
        self.pool.op_retries.load(Ordering::Relaxed)
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
    /// transform and are permuted by one batched automorphism. On a
    /// resident context a host-fresh input (say, one encrypted on a CPU
    /// context) is uploaded first, one upload per component, so every
    /// step runs on the device.
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
            ev.automorphism_polys(&mut [&mut c0, &mut c1], g);
            // The key switch accumulates straight into the transformed
            // `c0` (no separate add) and takes `c1` in coefficient form
            // (its internal inverse transform is a no-op here).
            ev.to_evaluation(&mut c0);
            let mut r1 = self.zero_acc(ev, level);
            self.key_switch(ev, c1, entries, level, [&mut c0, &mut r1], [&[], &[]]);
            Ciphertext {
                c0,
                c1: r1,
                scale: ct.scale,
            }
        })
    }

    /// [`HeContext::rotate`] in a [`HeContext::gated`] scope: every
    /// backend op of the rotation, key switch included, passes the fault
    /// gate, errors classify into transient/fatal/OOM, and a
    /// non-transient fault quarantines the pool member (rotation keys
    /// are context-owned, so they survive quarantine + re-fork
    /// untouched). On a simulated GPU below 256 points that is 5 gated
    /// launches per device: the inverse, the automorphism, the forward of
    /// `c0`, the digit forward (which decomposes as it loads) and the
    /// FMA.
    ///
    /// # Errors
    ///
    /// The first [`BackendError`] of the rotation's backend ops.
    ///
    /// # Panics
    ///
    /// Panics if no rotation key was generated for `(g, level)`.
    pub fn try_rotate(
        &self,
        ct: &Ciphertext,
        g: u64,
        rtk: &RotationKeys,
    ) -> Result<Ciphertext, BackendError> {
        self.gated(|| self.rotate(ct, g, rtk))
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
    /// one inverse transform and one forward transform that loads the
    /// centered lift ([`Evaluator::mod_raise`]), each over both
    /// components.
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
            let (r0, r1) = (raised.remove(0), raised.remove(0));
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

    /// Each term's plaintext message at its ciphertext's level, in
    /// evaluation form: the plaintext's own polynomial when it was
    /// prepared at that level ([`HeContext::prepare_plaintext`]), else a
    /// truncated copy that [`follow`]s the ciphertext, all copies
    /// transformed in one [`Evaluator::forward_polys`].
    fn plains_at<'a>(
        ev: &mut Evaluator,
        terms: &[(&Ciphertext, &'a Plaintext)],
    ) -> Vec<Cow<'a, RnsPoly>> {
        let mut ms: Vec<Cow<'a, RnsPoly>> = terms
            .iter()
            .map(|&(ct, pt)| {
                let level = ct.level();
                if pt.m.level() == level && pt.m.repr() == Representation::Evaluation {
                    return Cow::Borrowed(&pt.m);
                }
                let mut m = pt.m.truncated(level);
                follow(ev, &mut m, &ct.c0);
                Cow::Owned(m)
            })
            .collect();
        let mut fresh: Vec<&mut RnsPoly> = ms
            .iter_mut()
            .filter_map(|m| match m {
                Cow::Owned(m) => Some(m),
                Cow::Borrowed(_) => None,
            })
            .collect();
        ev.forward_polys(&mut fresh);
        ms
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
    /// With a prepared plaintext ([`HeContext::prepare_plaintext`]) both
    /// components are one launch on a device. A sum of such products at
    /// one scale, rescaled once, is
    /// [`HeContext::multiply_plain_sum`] — the baby-step/giant-step DFT
    /// stages' shape, which fuses the whole sum.
    pub fn multiply_plain_raw(&self, ct: &Ciphertext, pt: &Plaintext) -> Ciphertext {
        self.with_pooled_evaluator(|ev| self.multiply_plain_raw_group(ev, &[(ct, pt)]))
            .remove(0)
    }

    /// [`HeContext::multiply_plain_raw`] of a group of jobs on `ev`: the
    /// plaintexts' one transform ([`HeContext::plains_at`]), then one
    /// [`Evaluator::mul_pointwise_polys`] over the `2k` products `c0·m`
    /// and `c1·m`: on a device one launch for the whole group.
    fn multiply_plain_raw_group(
        &self,
        ev: &mut Evaluator,
        jobs: &[(&Ciphertext, &Plaintext)],
    ) -> Vec<Ciphertext> {
        let ms = Self::plains_at(ev, jobs);
        let mut outs: Vec<Ciphertext> = jobs
            .iter()
            .map(|&(ct, pt)| Ciphertext {
                c0: ct.c0.clone(),
                c1: ct.c1.clone(),
                scale: ct.scale * pt.scale,
            })
            .collect();
        let mut pairs: Vec<(&mut RnsPoly, &RnsPoly)> = outs
            .iter_mut()
            .zip(&ms)
            .flat_map(|(out, m)| [(&mut out.c0, &**m), (&mut out.c1, &**m)])
            .collect();
        ev.mul_pointwise_polys(&mut pairs);
        outs
    }

    /// [`HeContext::multiply_plain`] of a group of jobs at one level on
    /// `ev`: one [`Evaluator::forward_polys`] over every plaintext not
    /// prepared at its ciphertext's level, one
    /// [`Evaluator::mul_pointwise_polys`] over the `2k` component
    /// products, then one [`Evaluator::rescale_polys`] over all `2k`
    /// components. A plaintext the op truncates is made resident only
    /// when its ciphertext is, so a group of host-only ciphertexts is
    /// four host batches in all on any backend.
    ///
    /// # Panics
    ///
    /// Panics if the group mixes levels or is at level 1 (nothing left
    /// to rescale into).
    pub fn multiply_plain_group(
        &self,
        ev: &mut Evaluator,
        jobs: &[(&Ciphertext, &Plaintext)],
    ) -> Vec<Ciphertext> {
        let mut outs = self.multiply_plain_raw_group(ev, jobs);
        self.rescale_in_place(ev, &mut outs);
        outs
    }

    /// The plaintext-product sum `Σ_k ct_k ⊙ pt_k` at one level and one
    /// product scale, **without** a rescale: the inner sum of a
    /// baby-step/giant-step DFT stage. Both components are one
    /// [`Evaluator::fma_polys`], so on a device-resident context the
    /// whole sum is 1 launch, where [`HeContext::multiply_plain_raw`] +
    /// [`HeContext::add`] per term spend 1 per product and 1 per add.
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
            let ms = Self::plains_at(ev, terms);
            let products = |part: fn(&Ciphertext) -> &RnsPoly| -> Vec<_> {
                let factors = terms.iter().map(|(ct, _)| FmaFactor::Poly(part(ct)));
                factors.zip(ms.iter().map(|m| &**m)).collect()
            };
            let (p0, p1) = (products(|ct| &ct.c0), products(|ct| &ct.c1));
            let (mut c0, mut c1) = (self.zero_acc(ev, level), self.zero_acc(ev, level));
            ev.fma_polys(&mut [(&mut c0, &p0), (&mut c1, &p1)]);
            Ciphertext { c0, c1, scale }
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
        self.with_pooled_evaluator(|ev| {
            let m = Self::plains_at(ev, &[(ct, pt)]).remove(0);
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
            let (mut c0, mut c1) = (ct.c0.clone(), ct.c1.clone());
            ev.negate_polys(&mut [&mut c0, &mut c1]);
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
    /// ([`Evaluator::rescale_polys`]): on a device, two launches below
    /// 256 points.
    ///
    /// # Panics
    ///
    /// Panics at level 1 (no prime left to drop).
    pub fn rescale(&self, ct: &mut Ciphertext) {
        self.with_pooled_evaluator(|ev| self.rescale_in_place(ev, std::slice::from_mut(ct)));
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

    /// Encrypt under the public key: the one-job case of
    /// [`HeContext::encrypt_group`]. Under a resident key (one
    /// [`HeContext::keygen`] uploaded) the fresh samples are uploaded —
    /// the chain's initial upload — and the ciphertext lives on the
    /// device.
    pub fn encrypt<R: Rng + RngExt>(
        &self,
        pt: &Plaintext,
        pk: &PublicKey,
        rng: &mut R,
    ) -> Ciphertext {
        self.with_pooled_evaluator(|ev| self.encrypt_group(ev, pk, &mut [(pt, rng)]))
            .remove(0)
    }

    /// [`HeContext::encrypt`] of a group of jobs on `ev`, each drawing
    /// `u, e0, e1` from its own generator: one
    /// [`Evaluator::forward_polys`] over every job's samples and message,
    /// one [`Evaluator::mul_pointwise_polys`] over the `2k` key products
    /// `b·u`, `a·u`, then `c0 = b·u + e0 + m` and `c1 = a·u + e1` in two
    /// [`Evaluator::add_polys`]: the `2k` error sums, then the `k` message
    /// sums.
    ///
    /// The samples are made resident only when the key is, so a host-only
    /// key yields host-only ciphertexts through one host batch per stage.
    pub fn encrypt_group<R: Rng + RngExt>(
        &self,
        ev: &mut Evaluator,
        pk: &PublicKey,
        jobs: &mut [(&Plaintext, R)],
    ) -> Vec<Ciphertext> {
        let (ring, eta) = (&self.ring, self.params.error_eta);
        // Per job [u, e0, e1, m], back to back.
        let mut samples = Vec::with_capacity(4 * jobs.len());
        for (pt, rng) in jobs.iter_mut() {
            samples.push(sampling::ternary_poly(ring, rng));
            samples.push(sampling::error_poly(ring, eta, rng));
            samples.push(sampling::error_poly(ring, eta, rng));
            samples.push(pt.m.clone());
        }
        for s in &mut samples {
            follow(ev, s, &pk.b);
        }
        ev.forward_polys(&mut samples.iter_mut().collect::<Vec<_>>());

        let mut outs: Vec<Ciphertext> = jobs
            .iter()
            .map(|(pt, _)| Ciphertext {
                c0: pk.b.clone(),
                c1: pk.a.clone(),
                scale: pt.scale,
            })
            .collect();
        let mut pairs: Vec<(&mut RnsPoly, &RnsPoly)> = outs
            .iter_mut()
            .zip(samples.chunks_exact(4))
            .flat_map(|(ct, s)| [(&mut ct.c0, &s[0]), (&mut ct.c1, &s[0])])
            .collect();
        ev.mul_pointwise_polys(&mut pairs);
        // `c0` takes two addends, so the sums are two ops: the errors,
        // then the messages.
        let mut errors: Vec<(&mut RnsPoly, &RnsPoly)> = outs
            .iter_mut()
            .zip(samples.chunks_exact(4))
            .flat_map(|(ct, s)| [(&mut ct.c0, &s[1]), (&mut ct.c1, &s[2])])
            .collect();
        ev.add_polys(&mut errors);
        let mut messages: Vec<(&mut RnsPoly, &RnsPoly)> = outs
            .iter_mut()
            .zip(samples.chunks_exact(4))
            .map(|(ct, s)| (&mut ct.c0, &s[3]))
            .collect();
        ev.add_polys(&mut messages);
        outs
    }

    /// Decrypt with the secret key: the one-job case of
    /// [`HeContext::decrypt_group`]. An explicit sync point: the returned
    /// plaintext is host-fresh regardless of where the ciphertext lived.
    pub fn decrypt(&self, ct: &Ciphertext, sk: &SecretKey) -> Plaintext {
        self.with_pooled_evaluator(|ev| self.decrypt_group(ev, sk, &[ct]))
            .remove(0)
    }

    /// [`HeContext::decrypt`] of a group of ciphertexts at one level on
    /// `ev`: one [`Evaluator::mul_pointwise_polys`] over the `k` products
    /// `c1·s`, one [`Evaluator::add_polys`] of each `c0`, and one
    /// [`Evaluator::inverse_polys`] over the `k` sums. The secret,
    /// truncated once, is made resident only when the first ciphertext
    /// is, so host-only ciphertexts run two host batches on any backend.
    /// Decode the host-fresh plaintexts only once an armed checkout that
    /// ran this returned `Ok`: stale residues after a latched fault need
    /// not even fit the decoder's centered range.
    ///
    /// # Panics
    ///
    /// Panics if the group mixes levels.
    pub fn decrypt_group(
        &self,
        ev: &mut Evaluator,
        sk: &SecretKey,
        cts: &[&Ciphertext],
    ) -> Vec<Plaintext> {
        let Some(level) = cts.first().map(|ct| ct.level()) else {
            return Vec::new();
        };
        let mut s = sk.s_eval.truncated(level);
        follow(ev, &mut s, &cts[0].c1);
        let mut ms: Vec<RnsPoly> = cts
            .iter()
            .map(|ct| {
                assert_eq!(ct.level(), level, "decrypt group mixes levels");
                ct.c1.clone()
            })
            .collect();
        let mut pairs: Vec<(&mut RnsPoly, &RnsPoly)> = ms.iter_mut().map(|m| (m, &s)).collect();
        ev.mul_pointwise_polys(&mut pairs);
        let mut sums: Vec<(&mut RnsPoly, &RnsPoly)> =
            ms.iter_mut().zip(cts).map(|(m, ct)| (m, &ct.c0)).collect();
        ev.add_polys(&mut sums);
        ev.inverse_polys(&mut ms.iter_mut().collect::<Vec<_>>());
        ms.into_iter()
            .zip(cts)
            .map(|(mut m, ct)| {
                m.sync();
                Plaintext { m, scale: ct.scale }
            })
            .collect()
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
            let (mut c0, mut c1) = (a.c0.clone(), a.c1.clone());
            ev.add_polys(&mut [(&mut c0, &b.c0), (&mut c1, &b.c1)]);
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
            let (mut c0, mut c1) = (a.c0.clone(), a.c1.clone());
            ev.sub_polys(&mut [(&mut c0, &b.c0), (&mut c1, &b.c1)]);
            Ciphertext {
                c0,
                c1,
                scale: a.scale,
            }
        })
    }

    /// Plaintext multiplication (no relinearization needed), then a
    /// rescale: the one-job case of [`HeContext::multiply_plain_group`],
    /// which is [`HeContext::multiply_plain_raw`] followed by
    /// [`HeContext::rescale`], so a prepared plaintext
    /// ([`HeContext::prepare_plaintext`]) is used as-is.
    ///
    /// # Panics
    ///
    /// Panics if the ciphertext is at level 1 (nothing left to rescale).
    pub fn multiply_plain(&self, ct: &Ciphertext, pt: &Plaintext) -> Ciphertext {
        self.with_pooled_evaluator(|ev| self.multiply_plain_group(ev, &[(ct, pt)]))
            .remove(0)
    }

    /// Homomorphic multiplication: tensor, relinearize, rescale. For
    /// device-resident ciphertexts the whole chain — including the gadget
    /// digit decomposition and every digit NTT — runs on the device with
    /// zero host↔device transfers. One pointwise op takes `e2 = a1·b1`
    /// and `c1 = a1·b0`; the other tensor terms fold into the key switch's
    /// multiply-accumulates, `c0 = a0·b0 + Σ digit·key_b` and
    /// `c1 += a0·b1 + Σ digit·key_a`, which take as many terms each and
    /// so share one op. A device multiply is one pointwise and one FMA
    /// launch around the digit transforms, with no add.
    ///
    /// # Panics
    ///
    /// Panics on level mismatch or at level 1 (no prime to rescale into).
    pub fn multiply(&self, a: &Ciphertext, b: &Ciphertext, rk: &RelinKeys) -> Ciphertext {
        let level = a.level();
        assert_eq!(level, b.level(), "level mismatch");
        assert!(level >= 2, "no prime left to rescale into");
        self.with_pooled_evaluator(|ev| {
            let (mut e2, mut c1) = (a.c1.clone(), a.c1.clone());
            ev.mul_pointwise_polys(&mut [(&mut e2, &b.c1), (&mut c1, &b.c0)]);
            let mut c0 = self.zero_acc(ev, level);
            let a0 = FmaFactor::Poly(&a.c0);
            self.key_switch(
                ev,
                e2,
                &rk.entries[level - 1],
                level,
                [&mut c0, &mut c1],
                [&[(a0, &b.c0)], &[(a0, &b.c1)]],
            );
            let mut out = Ciphertext {
                c0,
                c1,
                scale: a.scale * b.scale,
            };
            self.rescale_in_place(ev, std::slice::from_mut(&mut out));
            out
        })
    }

    /// Gadget key switch of `e2` (`level` primes) under an `entries[j][d]`
    /// key set: relinearization passes `B^d·g_j·s²` encryptions, rotation
    /// `B^d·g_j·τ_g(s)` encryptions ([`crate::keys::RotationKeys`]). `e2`
    /// is consumed: both callers are done with it, so it is transformed
    /// and decomposed where it lives, with no device copy.
    ///
    /// The switched pair lands in caller-supplied evaluation-form
    /// accumulators, `acc[0] += Σ extra[0] + Σ_k digit_k·b_k` and
    /// `acc[1] += Σ extra[1] + Σ_k digit_k·a_k`, where `extra[i]` holds
    /// product terms to fold into the same multiply-accumulate: rotation
    /// passes its permuted `c0` as `acc[0]` and no extra terms,
    /// multiplication its tensor terms.
    ///
    /// One path on every backend, batched the way the paper batches
    /// kernel launches: [`Evaluator::decompose`] splits `e2` into its
    /// `level·digits` gadget digits and forward-transforms all of them in
    /// one call (on the device when `e2` is resident there, on the host
    /// otherwise), and both accumulators' whole inner products, the extra
    /// terms included, are one [`Evaluator::fma_polys`] — on a device one
    /// launch per key switch when `extra[0]` and `extra[1]` are as long,
    /// not one per accumulator, digit, product or add.
    fn key_switch(
        &self,
        ev: &mut Evaluator,
        mut e2: RnsPoly,
        entries: &[Vec<RelinEntry>],
        level: usize,
        [acc0, acc1]: [&mut RnsPoly; 2],
        extra: [&[(FmaFactor<'_>, &RnsPoly)]; 2],
    ) {
        let digits = self.params.gadget_digits();
        // On a residency-preferring backend the key entries live on the
        // device, so a host-submitted operand is uploaded first and its
        // digits never leave the device.
        if ev.prefers_residency() {
            ev.make_resident(&mut e2);
        }
        ev.to_coefficient(&mut e2);
        let decomposed = ev.decompose(&mut e2, digits, self.params.gadget_bits);
        // Digit `k = j·digits + d` pairs with key entry `(j, d)`.
        let keys = entries[..level].iter().flat_map(|row| &row[..digits]);
        let (b, a): (Vec<&RnsPoly>, Vec<&RnsPoly>) = keys.map(|e| (&e.b, &e.a)).unzip();
        let [t0, t1] = [(extra[0], b), (extra[1], a)].map(|(extra, keys)| {
            let digit_terms = keys
                .into_iter()
                .enumerate()
                .map(|(k, key)| (decomposed.factor(k), key));
            extra.iter().copied().chain(digit_terms).collect::<Vec<_>>()
        });
        ev.fma_polys(&mut [(acc0, &t0), (acc1, &t1)]);
    }

    /// Exact RNS rescale of ciphertexts at one level: divide by the last
    /// active prime and drop it. Every component rescales together in the
    /// evaluation domain — only their dropped rows cross domains
    /// ([`Evaluator::rescale_polys`]) — and resident ciphertexts rescale
    /// on the device.
    ///
    /// # Panics
    ///
    /// Panics on mixed levels or at level 1.
    fn rescale_in_place(&self, ev: &mut Evaluator, cts: &mut [Ciphertext]) {
        let Some(level) = cts.first().map(Ciphertext::level) else {
            return;
        };
        assert!(level >= 2, "no prime left to rescale into");
        let dropped = self.ring.basis().primes()[level - 1] as f64;
        let mut parts: Vec<&mut RnsPoly> = cts
            .iter_mut()
            .flat_map(|ct| [&mut ct.c0, &mut ct.c1])
            .collect();
        ev.rescale_polys(&mut parts);
        for ct in cts {
            ct.scale /= dropped;
        }
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
