//! The fault gate is a property of the evaluator checkout.
//!
//! An unarmed evaluator runs every backend op through `NttBackend::run`
//! and never draws from a fault plan, whatever its rates. An armed one
//! (`Evaluator::gated`, or a `HeContext::gated` scope such as
//! `try_with_pooled_evaluator`, `try_rotate` and `try_bootstrap`) passes
//! every op through `NttBackend::gate` first, re-draws a transient
//! failure in place up to three times, latches the first fault that
//! outlasts that and issues nothing after it. These tests count draws
//! with `FaultPlan::ops_seen` on the simulated device: what each served
//! group, each rotation, a host multiply-accumulate and a whole
//! bootstrap draws, that a sticky fault
//! stops the draws at the failing op, that transient faults are re-drawn
//! in place, that an injected OOM latches like a launch fault, how the
//! pool treats the member that saw a fault (a quarantined one frees what
//! it staged), and that a decrypt whose checkout faulted is never
//! decoded.

use he_serve::{
    job_seed, Batcher, BootParams, Bootstrapper, EncryptJob, HeServer, Request, Response,
    ServeConfig, ServeError, TenantId,
};
use ntt_warp::core::backend::{Evaluator, FmaFactor};
use ntt_warp::core::{BackendError, NttBackend, RnsPoly};
use ntt_warp::gpu::{ShardedBackend, SimBackend};
use ntt_warp::he::{
    sampling, Ciphertext, HeContext, HeLiteParams, KeySet, Plaintext, RotationKeys,
};
use ntt_warp::sim::{FaultOp, FaultPlan};

/// Three 50-bit primes: the top-level modulus exceeds 2^127, so the
/// centered CRT of arbitrary residues does not fit an `i128`.
fn params() -> HeLiteParams {
    HeLiteParams {
        log_n: 5,
        prime_bits: 50,
        levels: 3,
        scale_bits: 40,
        gadget_bits: 10,
        error_eta: 4,
    }
}

/// Galois element of the rotation under test.
const G: u64 = 5;

/// Draws on a plan whose every draw fails.
fn always_faulting() -> FaultPlan {
    [
        FaultOp::Upload,
        FaultOp::Download,
        FaultOp::Launch,
        FaultOp::Alloc,
    ]
    .into_iter()
    .fold(FaultPlan::seeded(1), |plan, op| plan.rate(op, 1000))
    .sticky_after(0)
}

struct Setup {
    sim: SimBackend,
    ctx: HeContext,
    keys: KeySet,
    rtk: RotationKeys,
    batcher: Batcher,
    ct: Ciphertext,
}

/// A Sim context with keys, a rotation key at the top level and one
/// host-resident top-level ciphertext; no fault plan armed yet.
fn setup() -> Setup {
    let sim = SimBackend::titan_v();
    let ctx = HeContext::with_backend(params(), sim.fork()).expect("sim context builds");
    let keys = ctx.keygen(&mut sampling::seeded_rng(3));
    let top = ctx.params().levels;
    let rtk = ctx.keygen_rotation(&keys.secret, &[G], &[top], &mut sampling::seeded_rng(4));
    let batcher = Batcher::new(&keys);
    let ct = encrypt_group(&ctx, &batcher, &jobs(1)).remove(0);
    Setup {
        sim,
        ctx,
        keys,
        rtk,
        batcher,
        ct,
    }
}

/// Host-resident ciphertexts from one unarmed encrypt group.
fn encrypt_group(ctx: &HeContext, batcher: &Batcher, jobs: &[EncryptJob]) -> Vec<Ciphertext> {
    ctx.with_pooled_evaluator(|ev| batcher.encrypt_batch(ctx, ev, jobs))
}

fn jobs(k: u32) -> Vec<EncryptJob> {
    (0..k)
        .map(|j| EncryptJob {
            seed: job_seed(1, TenantId(j), 0),
            values: vec![1.0 + f64::from(j), -2.0],
        })
        .collect()
}

/// Arm `plan` fresh (its draw counter at zero).
fn arm(sim: &SimBackend, plan: FaultPlan) {
    sim.set_fault_plan(Some(plan));
}

fn draws(sim: &SimBackend) -> u64 {
    sim.with_gpu(|gpu| gpu.fault_plan().map_or(0, FaultPlan::ops_seen))
}

/// Host-synced components, for bit comparisons.
fn bits(ct: &Ciphertext) -> (RnsPoly, RnsPoly) {
    let mut ct = ct.clone();
    ct.sync();
    let (c0, c1) = ct.components();
    (c0.clone(), c1.clone())
}

/// Unarmed paths never draw: HE ops and Batcher groups on a plan where
/// every draw would fail still compute, and the plan sees nothing.
#[test]
fn unarmed_ops_and_groups_draw_nothing() {
    let s = setup();
    let ctx = &s.ctx;
    arm(&s.sim, always_faulting());

    let pt = ctx.encode(&[0.5, 1.5]);
    let ct = ctx.encrypt(&pt, &s.keys.public, &mut sampling::seeded_rng(9));
    let _ = ctx.multiply(&ct, &s.ct, &s.keys.relin);
    let rot = ctx.rotate(&s.ct, G, &s.rtk);
    let _ = ctx.multiply_plain(&ctx.add(&rot, &ct), &ctx.encode(&[1.0]));
    let _ = ctx.mod_raise(&ctx.drop_to_level(&s.ct, 1), 3);
    let decoded = ctx.decode(&ctx.decrypt(&ct, &s.keys.secret));
    assert!((decoded[0] - 0.5).abs() < 1e-3, "decrypted {}", decoded[0]);

    let outs = ctx.with_pooled_evaluator(|ev| {
        let cts = s.batcher.encrypt_batch(ctx, ev, &jobs(3));
        let weighted = cts.into_iter().map(|ct| (ct, vec![2.0])).collect();
        let evald = s.batcher.eval_batch(ctx, ev, weighted);
        s.batcher.decrypt_batch(ctx, ev, evald)
    });
    for (j, pt) in outs.iter().enumerate() {
        let got = ctx.decode(pt)[0];
        assert!(
            (got - 2.0 * (1.0 + j as f64)).abs() < 1e-2,
            "job {j}: {got}"
        );
    }
    assert_eq!(draws(&s.sim), 0, "an unarmed path drew from the fault plan");
}

/// An armed checkout draws once per command of every op: a served
/// encrypt, eval and decrypt group draw what they drew as separate
/// fallible pipelines (each host batch is one staged upload, launch and
/// download on one device), and a rotation draws its 5 launches — the
/// inverse of both components, their automorphism, the forward of `c0`,
/// the digit forward (which decomposes as it loads) and the
/// multiply-accumulate into both accumulators.
#[test]
fn armed_groups_and_rotation_draw_per_op() {
    let s = setup();
    let ctx = &s.ctx;
    let unarmed = ctx.rotate(&s.ct, G, &s.rtk);

    arm(&s.sim, FaultPlan::seeded(1));
    let cts = ctx
        .try_with_pooled_evaluator(|ev| s.batcher.encrypt_batch(ctx, ev, &jobs(3)))
        .expect("a zero-rate plan never faults");
    assert_eq!(draws(&s.sim), 6, "encrypt group draws");

    arm(&s.sim, FaultPlan::seeded(1));
    let weighted: Vec<_> = cts.into_iter().map(|ct| (ct, vec![2.0])).collect();
    let evald = ctx
        .try_with_pooled_evaluator(|ev| s.batcher.eval_batch(ctx, ev, weighted))
        .expect("a zero-rate plan never faults");
    assert_eq!(draws(&s.sim), 12, "eval group draws");

    arm(&s.sim, FaultPlan::seeded(1));
    ctx.try_with_pooled_evaluator(|ev| s.batcher.decrypt_batch(ctx, ev, evald))
        .expect("a zero-rate plan never faults");
    assert_eq!(draws(&s.sim), 6, "decrypt group draws");

    arm(&s.sim, FaultPlan::seeded(1));
    let armed = ctx.try_rotate(&s.ct, G, &s.rtk).expect("zero-rate plan");
    assert_eq!(draws(&s.sim), 5, "rotation draws");
    assert_eq!(bits(&armed), bits(&unarmed), "arming changed the bits");
}

/// A multiply-accumulate whose terms are all on the host adds them
/// straight into the accumulator's host rows: armed under a zero-rate
/// plan it draws nothing, where the pointwise + add chain draws 3 per
/// term (one staged pointwise batch each), and it gives that chain's
/// bits.
#[test]
fn host_fma_draws_nothing() {
    let s = setup();
    let ring = s.ctx.ring();
    let poly = |seed: u64| sampling::uniform_eval_poly(ring, 3, &mut sampling::seeded_rng(seed));
    let (xs, ys): (Vec<RnsPoly>, Vec<RnsPoly>) = (0..3).map(|k| (poly(k), poly(10 + k))).unzip();
    let terms: Vec<_> = xs.iter().map(FmaFactor::Poly).zip(&ys).collect();
    let mut ev = Evaluator::with_backend(ring, s.sim.fork());
    let (mut fused, mut chain) = (poly(20), poly(20));

    arm(&s.sim, FaultPlan::seeded(1));
    ev.gated(|ev| ev.fma(&mut fused, &terms))
        .expect("a zero-rate plan never faults");
    assert_eq!(draws(&s.sim), 0, "a host fma drew");

    arm(&s.sim, FaultPlan::seeded(1));
    ev.gated(|ev| {
        for (x, y) in xs.iter().zip(&ys) {
            let mut prod = x.clone();
            ev.mul_pointwise(&mut prod, y);
            ev.add_assign(&mut chain, &prod);
        }
    })
    .expect("a zero-rate plan never faults");
    assert_eq!(draws(&s.sim), 3 * 3, "chain draws");
    assert_eq!(fused, chain, "fma bits");
}

/// A sticky fault at draw `k` fails the rotation, and the latch stops
/// every draw after the failing one; with the wedge past the rotation's
/// 5 draws it computes exactly what the unarmed rotation does.
#[test]
fn sticky_rotation_stops_at_the_failing_draw() {
    let s = setup();
    let want = bits(&s.ctx.rotate(&s.ct, G, &s.rtk));
    for k in 0..5 {
        arm(&s.sim, FaultPlan::seeded(1).sticky_after(k));
        let err = s
            .ctx
            .try_rotate(&s.ct, G, &s.rtk)
            .expect_err("a wedge inside the rotation fails it");
        assert!(!err.is_transient(), "k = {k}: {err:?}");
        assert_eq!(draws(&s.sim), k + 1, "k = {k}: drew after the fault");
    }
    for k in 5..8 {
        arm(&s.sim, FaultPlan::seeded(1).sticky_after(k));
        let got = s
            .ctx
            .try_rotate(&s.ct, G, &s.rtk)
            .expect("wedge after the rotation");
        assert_eq!(bits(&got), want, "k = {k}: armed rotation bits");
        assert_eq!(draws(&s.sim), 5, "k = {k}");
    }
}

/// A transient fault returns the checked-out member to the pool; a
/// sticky one quarantines it and re-forks a replacement.
#[test]
fn transient_fault_keeps_the_member_sticky_one_quarantines_it() {
    let s = setup();
    let ctx = &s.ctx;
    let created = ctx.evaluator_count();

    arm(&s.sim, FaultPlan::seeded(1).rate(FaultOp::Launch, 1000));
    let err = ctx
        .try_rotate(&s.ct, G, &s.rtk)
        .expect_err("every launch faults");
    assert!(err.is_transient(), "{err:?}");
    assert_eq!(
        draws(&s.sim),
        1 + 3,
        "three in-place re-draws, nothing drawn after the latch"
    );
    assert_eq!(ctx.quarantined_count(), 0, "a transient fault quarantined");
    assert_eq!(ctx.evaluator_count(), created, "the member was replaced");

    arm(&s.sim, FaultPlan::seeded(1).sticky_after(3));
    let err = ctx
        .try_rotate(&s.ct, G, &s.rtk)
        .expect_err("wedged mid-rotation");
    assert!(!err.is_transient(), "{err:?}");
    assert_eq!(
        ctx.quarantined_count(),
        1,
        "the wedged member stayed pooled"
    );
    assert_eq!(ctx.evaluator_count(), created + 1, "no replacement forked");

    // The replacement and the returned member are unarmed again.
    arm(&s.sim, always_faulting());
    let _ = ctx.rotate(&s.ct, G, &s.rtk);
    assert_eq!(draws(&s.sim), 0, "a pooled member stayed armed");
}

/// A quarantined member frees what it staged. Under `sticky_after(3)`
/// an armed encrypt group of 3 jobs at N = 2^6 runs its first host batch
/// (upload, launch and download), wedges on the second and quarantines
/// its member, which is dropped. Five such quarantines leave the
/// device's allocated words where the first one left them.
#[test]
fn quarantined_members_free_their_staging() {
    let sim = SimBackend::titan_v();
    let params = HeLiteParams {
        log_n: 6,
        ..params()
    };
    let ctx = HeContext::with_backend(params, sim.fork()).expect("sim context builds");
    let batcher = Batcher::new(&ctx.keygen(&mut sampling::seeded_rng(3)));
    let mut first = None;
    for cycle in 0..5 {
        arm(&sim, FaultPlan::seeded(1).sticky_after(3));
        let err = ctx
            .try_with_pooled_evaluator(|ev| batcher.encrypt_batch(&ctx, ev, &jobs(3)))
            .expect_err("the second host batch wedges");
        assert!(!err.is_transient(), "cycle {cycle}: {err:?}");
        assert_eq!(
            draws(&sim),
            4,
            "cycle {cycle}: one host batch, then the wedge"
        );
        assert_eq!(ctx.quarantined_count(), cycle + 1, "cycle {cycle}");
        let words = sim.with_gpu(|gpu| gpu.gmem.allocated_words());
        assert_eq!(
            *first.get_or_insert(words),
            words,
            "cycle {cycle}: a quarantined member kept device words"
        );
    }
}

/// Host code after a latched fault reads stale rows. At a level whose
/// modulus exceeds 2^127 a stale decrypt's centered CRT no longer fits
/// an `i128`, so decoding it inside the checkout would panic: the
/// checkout returns `Err` for a wedge at every one of the decrypt's 6
/// draws, and the plaintexts are never decoded.
#[test]
fn faulted_decrypt_is_err_and_never_decoded() {
    let s = setup();
    let ctx = &s.ctx;
    let cts = encrypt_group(ctx, &s.batcher, &jobs(2));
    assert_eq!(cts[0].level(), 3, "three 50-bit primes");
    let fits_i128 = |pt: &Plaintext| {
        (0..ctx.params().n()).all(|i| pt.poly().coefficient_centered(ctx.ring(), i).is_some())
    };
    let mut stale_overflows = 0;
    for k in 0..6 {
        arm(&s.sim, FaultPlan::seeded(1).sticky_after(k));
        let out = ctx.try_with_pooled_evaluator(|ev| {
            let pts = s.batcher.decrypt_batch(ctx, ev, cts.clone());
            stale_overflows += usize::from(!pts.iter().all(fits_i128));
            pts
        });
        assert!(out.is_err(), "k = {k}: a wedged decrypt returned Ok");
        assert_eq!(draws(&s.sim), k + 1, "k = {k}: drew after the fault");
    }
    assert_eq!(stale_overflows, 6, "stale rows decoded in range");

    arm(&s.sim, FaultPlan::seeded(1).sticky_after(6));
    let pts = ctx
        .try_with_pooled_evaluator(|ev| s.batcher.decrypt_batch(ctx, ev, cts.clone()))
        .expect("the wedge comes after the decrypt");
    assert!((ctx.decode(&pts[1])[0] - 2.0).abs() < 1e-3);
}

/// An armed rotation computes the unarmed CPU rotation's bits on Sim and
/// on Sharded at K = 1, 2, 3.
#[test]
fn armed_rotation_is_bit_identical_across_backends() {
    let n = params().n();
    let cpu = HeContext::new(params()).expect("cpu context builds");
    let keys = cpu.keygen(&mut sampling::seeded_rng(3));
    let rtk = cpu.keygen_rotation(&keys.secret, &[G], &[3], &mut sampling::seeded_rng(4));
    let ct = cpu.encrypt(
        &cpu.encode(&[0.25, -1.0]),
        &keys.public,
        &mut sampling::seeded_rng(5),
    );
    let want = bits(&cpu.rotate(&ct, G, &rtk));
    assert_eq!(
        bits(&cpu.try_rotate(&ct, G, &rtk).expect("no fault model")),
        want
    );

    let mut backends: Vec<Box<dyn NttBackend>> = vec![Box::new(SimBackend::titan_v())];
    backends
        .extend((1..=3).map(|k| Box::new(ShardedBackend::titan_v(k, n)) as Box<dyn NttBackend>));
    for backend in backends {
        let name = backend.name();
        let ctx = HeContext::with_backend(params(), backend).expect("device context builds");
        let rtk = ctx.adopt_rotation_keys(&rtk);
        let got = ctx.try_rotate(&ct, G, &rtk).expect("no plan armed");
        assert_eq!(bits(&got), want, "{name}: armed rotation bits");
    }
}

/// A bootstrap group takes no checkout of its own; each bootstrap arms
/// one pool member for its whole pipeline. A wedge mid-bootstrap
/// quarantines that member, and the group answers the fault without a
/// re-run (a bootstrap has no host fallback): one member in all, where an
/// outer checkout around the group would quarantine an idle member per
/// attempt as well.
#[test]
fn wedged_boot_group_quarantines_only_rotation_members() {
    let bp = BootParams::shallow();
    let params = bp.he_params(4, 50);
    let key_seed = 7;
    let sim = SimBackend::titan_v();
    let ctx = HeContext::with_backend(params, sim.fork()).expect("sim context builds");
    let config = ServeConfig {
        workers: 1,
        batching: false,
        key_seed,
        boot: Some(bp),
        ..ServeConfig::default()
    };
    let server = HeServer::start(ctx, config);

    // The server's keys, replayed on a host context from its key seed.
    let cpu = HeContext::new(params).expect("cpu context builds");
    let keys = cpu.keygen(&mut sampling::seeded_rng(key_seed));
    let scale = server.bootstrapper().expect("boot enabled").input_scale();
    let pt = cpu.encode_with_scale(&[0.5, -0.25], scale);
    let ct = cpu.encrypt(&pt, &keys.public, &mut sampling::seeded_rng(100));
    let input = cpu.drop_to_level(&ct, 1);

    arm(&sim, FaultPlan::seeded(1).sticky_after(20));
    let ticket = server
        .submit(TenantId(0), Request::Boot { ct: input })
        .expect("boot job admitted");
    let answer = ticket.wait().expect("answered").response;
    assert!(
        matches!(answer, Response::Failed(ServeError::Fault { .. })),
        "a wedged device failed to fail the bootstrap: {answer:?}"
    );
    assert_eq!(server.context().quarantined_count(), 1);
    server.shutdown();
}

/// Under a transient-only plan an armed rotation re-draws each failing
/// gate in place: it computes the unarmed bits, draws more than its 5
/// launches, and the context tallies exactly the extra draws.
#[test]
fn transient_faults_are_redrawn_in_place() {
    let s = setup();
    let ctx = &s.ctx;
    let want = bits(&ctx.rotate(&s.ct, G, &s.rtk));
    let before = ctx.op_retry_count();
    arm(&s.sim, FaultPlan::seeded(5).rate(FaultOp::Launch, 300));
    let got = ctx
        .try_rotate(&s.ct, G, &s.rtk)
        .expect("in-place re-draws absorb the transient faults");
    assert_eq!(bits(&got), want, "re-drawn rotation bits");
    let seen = draws(&s.sim);
    assert!(seen > 5, "no transient fault fired: {seen} draws");
    assert_eq!(ctx.op_retry_count() - before, seen - 5, "retry tally");
    assert_eq!(ctx.quarantined_count(), 0);
}

/// An armed evaluator allocates its accumulators and scratch through
/// `try_alloc`: with the device capped at what it already holds, an
/// armed rotation latches `Oom` instead of panicking and its member is
/// quarantined, while an unarmed rotation under the same plan (which
/// never consults it) still computes.
#[test]
fn injected_oom_latches_and_quarantines() {
    let s = setup();
    let ctx = &s.ctx;
    let want = bits(&ctx.rotate(&s.ct, G, &s.rtk));
    let held = s.sim.with_gpu(|gpu| gpu.gmem.allocated_words());
    arm(&s.sim, FaultPlan::seeded(1).oom_words(held));
    let err = ctx
        .try_rotate(&s.ct, G, &s.rtk)
        .expect_err("no room for the rotation's accumulator");
    assert!(matches!(err, BackendError::Oom { .. }), "{err:?}");
    assert_eq!(ctx.quarantined_count(), 1, "the OOM member stayed pooled");
    let unarmed = ctx.rotate(&s.ct, G, &s.rtk);
    assert_eq!(bits(&unarmed), want, "unarmed rotation under the cap");
}

/// A shallow N = 2^4 Sim bootstrap context with a level-1 input; its
/// first bootstrap fills the EvalMod constant cache.
fn boot_setup() -> (SimBackend, Bootstrapper, Ciphertext) {
    let bp = BootParams::shallow();
    let sim = SimBackend::titan_v();
    let ctx = std::sync::Arc::new(
        HeContext::with_backend(bp.he_params(4, 50), sim.fork()).expect("sim context builds"),
    );
    let mut rng = sampling::seeded_rng(21);
    let keys = ctx.keygen(&mut rng);
    let boot = Bootstrapper::new(std::sync::Arc::clone(&ctx), &keys, bp, &mut rng);
    let pt = ctx.encode_with_scale(&[0.25, -0.5], boot.input_scale());
    let ct = ctx.encrypt(&pt, &keys.public, &mut sampling::seeded_rng(22));
    let low = ctx.drop_to_level(&ct, 1);
    (sim, boot, low)
}

/// The labels of the launches `f` issues on `sim`.
fn launches_of(sim: &SimBackend, f: impl FnOnce()) -> Vec<String> {
    let from = sim.with_gpu(|gpu| gpu.trace.len());
    f();
    sim.with_gpu(|gpu| {
        let trace = &gpu.trace[from..];
        trace.iter().map(|r| r.launch.label.to_string()).collect()
    })
}

/// `try_bootstrap` arms one pool member for the whole pipeline: under a
/// zero-rate plan it draws exactly once per launch of the unarmed
/// bootstrap (mod-raise, rotations, plaintext products, EvalMod's
/// multiplies and every rescale), with the unarmed bits. A steady
/// bootstrap is 192 launches: each ciphertext op is one launch over
/// both components where it can be, and the digit decomposition and the
/// lifts ride the forward transforms that consume them.
#[test]
fn armed_bootstrap_draws_once_per_launch() {
    let (sim, boot, low) = boot_setup();
    let _ = boot.bootstrap(&low);
    let mut want = None;
    let launches = launches_of(&sim, || want = Some(boot.bootstrap(&low)));
    assert_eq!(launches.len(), 192, "launches per steady bootstrap");
    arm(&sim, FaultPlan::seeded(1));
    let got = boot
        .try_bootstrap(&low)
        .expect("a zero-rate plan never faults");
    assert_eq!(draws(&sim) as usize, launches.len(), "draws per launch");
    assert_eq!(
        bits(&got),
        bits(&want.expect("ran")),
        "arming changed the bits"
    );
}

/// A sticky wedge inside EvalMod — a few draws past the first
/// element-wise product, which only EvalMod's ciphertext multiplies
/// issue (rotations, plaintext sums, rescales and the mod-raise launch
/// none) — fails the bootstrap with a non-transient error, and nothing
/// is drawn after the failing op.
#[test]
fn sticky_wedge_inside_eval_mod_stops_the_bootstrap() {
    let (sim, boot, low) = boot_setup();
    let _ = boot.bootstrap(&low);
    let launches = launches_of(&sim, || drop(boot.bootstrap(&low)));
    let eval_mod = launches
        .iter()
        .position(|label| label == "sim-pointwise")
        .expect("EvalMod multiplies");
    let k = eval_mod as u64 + 2;
    assert!(
        (k as usize) + 1 < launches.len(),
        "wedge inside the bootstrap"
    );
    arm(&sim, FaultPlan::seeded(1).sticky_after(k));
    let err = boot
        .try_bootstrap(&low)
        .expect_err("a wedge inside EvalMod fails the bootstrap");
    assert!(!err.is_transient(), "{err:?}");
    assert_eq!(draws(&sim), k + 1, "drew after the fault");
}

/// EvalMod prepares its constants on first use, inside the armed scope.
/// A first bootstrap wedged at EvalMod's first op prepares them all
/// after the latch (their transforms skipped): none may be cached, so
/// once the device heals the next bootstrap gives the bits of an
/// identical engine that never faulted.
#[test]
fn faulted_first_bootstrap_caches_no_stale_constant() {
    let (sim, boot, low) = boot_setup();
    let (ref_sim, reference, ref_low) = boot_setup();
    let launches = launches_of(&ref_sim, || drop(reference.bootstrap(&ref_low)));
    let want = bits(&reference.bootstrap(&ref_low));
    let eval_mod = launches
        .iter()
        .position(|label| label == "sim-pointwise")
        .expect("EvalMod multiplies");
    arm(&sim, FaultPlan::seeded(1).sticky_after(eval_mod as u64));
    boot.try_bootstrap(&low)
        .expect_err("wedged at EvalMod's first op");
    sim.set_fault_plan(None);
    assert_eq!(
        bits(&boot.bootstrap(&low)),
        want,
        "a stale constant was cached"
    );
}

/// The evaluator's multi-polynomial ops put their host polynomials in
/// one staged call each. Under a zero-rate plan on Sim, `forward_polys`
/// over four host polynomials draws 3 (one upload, launch and download),
/// `mul_pointwise_polys` over four host pairs 3, and `rescale_polys` over
/// two host polynomials 6: the inverse of their dropped rows and the
/// forward of the lifted rows. Each gives the bits of one-at-a-time
/// calls, and the rescale the bits of the coefficient-domain
/// `RnsPoly::rescale`.
#[test]
fn host_polys_share_one_staged_call_per_op() {
    use ntt_warp::core::backend::Evaluator;
    use ntt_warp::core::RnsRing;

    let sim = SimBackend::titan_v();
    let ring = RnsRing::new(32, ntt_warp::math::ntt_primes(50, 64, 3)).unwrap();
    let mut ev = Evaluator::with_backend(&ring, sim.fork());
    let polys: Vec<RnsPoly> = (0..4i64)
        .map(|s| {
            let coeffs: Vec<i64> = (0..32)
                .map(|i| (s + 3) * (i * i + 1) % 1009 - 504)
                .collect();
            RnsPoly::from_i64_coeffs(&ring, &coeffs)
        })
        .collect();
    let zero_rate = || FaultPlan::seeded(1);

    let mut one = polys.clone();
    for p in &mut one {
        ev.to_evaluation(p);
    }
    let mut all = polys.clone();
    arm(&sim, zero_rate());
    ev.gated(|ev| ev.forward_polys(&mut all.iter_mut().collect::<Vec<_>>()))
        .expect("a zero-rate plan never faults");
    assert_eq!(draws(&sim), 3, "forward_polys draws");
    assert_eq!(all, one, "forward_polys bits");

    let rhs: Vec<RnsPoly> = one.iter().rev().cloned().collect();
    for (acc, r) in one.iter_mut().zip(&rhs) {
        ev.mul_pointwise(acc, r);
    }
    arm(&sim, zero_rate());
    let mut pairs: Vec<(&mut RnsPoly, &RnsPoly)> = all.iter_mut().zip(&rhs).collect();
    ev.gated(|ev| ev.mul_pointwise_polys(&mut pairs))
        .expect("a zero-rate plan never faults");
    assert_eq!(draws(&sim), 3, "mul_pointwise_polys draws");
    assert_eq!(all, one, "mul_pointwise_polys bits");

    let (mut x, mut y) = (all[0].clone(), all[1].clone());
    for p in [&mut x, &mut y] {
        ev.rescale_polys(&mut [p]);
    }
    let (mut a, mut b) = (all[0].clone(), all[1].clone());
    arm(&sim, zero_rate());
    ev.gated(|ev| ev.rescale_polys(&mut [&mut a, &mut b]))
        .expect("a zero-rate plan never faults");
    assert_eq!(draws(&sim), 6, "rescale_polys draws");
    assert_eq!((&a, &b), (&x, &y), "rescale_polys bits");
    for (got, src) in [(a, &all[0]), (b, &all[1])] {
        let (mut got, mut want) = (got, src.clone());
        got.to_coefficient(&ring);
        want.to_coefficient(&ring);
        want.rescale(&ring);
        assert_eq!(got, want, "the coefficient-domain rescale");
    }
}
