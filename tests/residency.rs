//! The residency state machine, end to end.
//!
//! Three families of checks:
//!
//! * **Interleaving property** — any interleaving of host reads/writes
//!   and device operations on a device-resident polynomial yields results
//!   bit-identical to a host-only run, on both the identity (CPU arena)
//!   and the simulated-GPU device memories.
//! * **Cross-substrate conformance** — `CpuBackend` and `SimBackend`
//!   agree under device-resident chains, including shapes large enough to
//!   route through the SMEM two-kernel forward path.
//! * **Zero steady-state transfers** — a resident `he-lite`
//!   encrypt → multiply → relinearize → rescale chain on `SimBackend`
//!   performs no host↔device transfers after the initial upload, a
//!   steady rescale allocates nothing, and the evaluator pool lets
//!   concurrent (and nested) scheme operations proceed without
//!   serializing on one evaluator lock.

use ntt_warp::core::backend::{Evaluator, NttBackend};
use ntt_warp::core::poly::{Representation, Residency};
use ntt_warp::core::{CpuBackend, RnsPoly, RnsRing};
use ntt_warp::gpu::{ShardedBackend, SimBackend};
use ntt_warp::he::{sampling, Ciphertext, HeContext, HeLiteParams, Plaintext, PublicKey};
use proptest::prelude::*;

fn ring(n: usize, np: usize) -> RnsRing {
    RnsRing::new(n, ntt_warp::math::ntt_primes(59, 2 * n as u64, np)).unwrap()
}

fn sample(ring: &RnsRing, seed: i64) -> RnsPoly {
    let coeffs: Vec<i64> = (0..ring.degree() as i64)
        .map(|i| (seed.wrapping_mul(i + 3) % 97) - 48)
        .collect();
    RnsPoly::from_i64_coeffs(ring, &coeffs)
}

/// One step of an interleaved host/device schedule. `code` picks the
/// operation, `arg` parameterizes host writes.
fn apply_step(
    ev: &mut Evaluator,
    x: &mut RnsPoly,
    other_eval: &RnsPoly,
    other_coef: &RnsPoly,
    code: u8,
    arg: u64,
) {
    match code % 6 {
        0 => ev.to_evaluation(x),
        1 => ev.to_coefficient(x),
        2 => {
            // Representation-matched binary op.
            if x.repr() == Representation::Evaluation {
                ev.mul_pointwise(x, other_eval);
            } else {
                ev.add_assign(x, other_coef);
            }
        }
        3 => ev.negate(x),
        4 => {
            // Host write: forces a lazy download (if device-dirty), then
            // marks the device copy stale so the next device op re-uploads.
            let n = x.degree();
            let idx = (arg as usize) % n;
            let p = ev.ring().basis().primes()[0];
            x.row_mut(0)[idx] = arg % p;
        }
        _ => {
            // Explicit sync point mid-schedule (host read of a row).
            x.sync();
            let _ = x.row(0)[0];
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any interleaving of host reads/writes and device ops is
    /// bit-identical to the host-only run — on the identity arena and on
    /// the simulated GPU.
    #[test]
    fn interleavings_match_host_only_run(
        steps in proptest::collection::vec((0u8..6, any::<u64>()), 1..16),
        seed in any::<u64>(),
    ) {
        let ring = ring(32, 2);
        let x0 = sample(&ring, (seed % 1000) as i64);
        let mut oe = sample(&ring, 77);
        let oc = sample(&ring, 33);

        // Host-only reference run.
        let mut host_ev = Evaluator::cpu(&ring);
        host_ev.to_evaluation(&mut oe);
        let mut hx = x0.clone();
        for &(code, arg) in &steps {
            apply_step(&mut host_ev, &mut hx, &oe, &oc, code, arg);
        }
        hx.sync();

        // Resident runs: identity arena and simulated GPU.
        let backends: Vec<Box<dyn NttBackend>> = vec![
            Box::new(CpuBackend::default()),
            Box::new(SimBackend::titan_v()),
        ];
        for backend in backends {
            let name = backend.name();
            let mut ev = Evaluator::new(ring.plan(), backend);
            let (mut dx, mut doe, mut doc) = (x0.clone(), oe.clone(), oc.clone());
            ev.make_resident(&mut dx);
            ev.make_resident(&mut doe);
            ev.make_resident(&mut doc);
            for &(code, arg) in &steps {
                apply_step(&mut ev, &mut dx, &doe, &doc, code, arg);
            }
            dx.sync();
            prop_assert_eq!(dx.flat(), hx.flat(), "backend {}", name);
        }
    }
}

/// Cpu and Sim agree on a full device-resident chain at a shape large
/// enough that the sim's forward path routes through the SMEM two-kernel
/// implementation (N = 512 ≥ the routing floor).
#[test]
fn cpu_and_sim_agree_on_resident_chains_through_smem() {
    let ring = ring(512, 3);
    let a = sample(&ring, 5);
    let b = sample(&ring, 11);

    let run = |backend: Box<dyn NttBackend>| -> (RnsPoly, RnsPoly) {
        let mut ev = Evaluator::new(ring.plan(), backend);
        let (mut da, mut db) = (a.clone(), b.clone());
        ev.make_resident(&mut da);
        ev.make_resident(&mut db);
        let mut prod = ev.multiply(&da, &db);
        ev.to_evaluation(&mut da);
        ev.to_evaluation(&mut db);
        ev.mul_pointwise(&mut da, &db);
        ev.to_coefficient(&mut da);
        ev.rescale(&mut da);
        prod.sync();
        da.sync();
        (prod, da)
    };
    let (cpu_prod, cpu_x) = run(Box::<CpuBackend>::default());
    let (sim_prod, sim_x) = run(Box::new(SimBackend::titan_v()));
    assert_eq!(cpu_prod, sim_prod, "fused multiply");
    assert_eq!(cpu_x, sim_x, "pointwise + rescale chain");
}

fn sim_params() -> HeLiteParams {
    HeLiteParams {
        log_n: 7,
        prime_bits: 50,
        levels: 3,
        scale_bits: 46,
        gadget_bits: 10,
        error_eta: 4,
    }
}

/// The acceptance gate: a resident he-lite
/// encrypt → multiply → relinearize → rescale chain on `SimBackend`
/// reports zero host↔device transfers after the initial upload.
#[test]
fn resident_he_chain_has_zero_steady_state_transfers() {
    let ctx = HeContext::with_backend(sim_params(), Box::new(SimBackend::titan_v())).unwrap();
    assert!(ctx.is_resident());
    let keys = ctx.keygen(&mut sampling::seeded_rng(42));
    let mut rng = sampling::seeded_rng(7);
    let a = ctx.encrypt(&ctx.encode(&[2.5, -1.0]), &keys.public, &mut rng);
    let b = ctx.encrypt(&ctx.encode(&[3.0, 0.5]), &keys.public, &mut rng);
    assert_eq!(
        a.residency(),
        Residency::DeviceOnly,
        "ciphertexts stay on-device"
    );

    // Initial upload is over (keys + fresh ciphertexts + tables). The
    // steady-state window covers the whole tensor/relinearize/rescale
    // chain, twice (the second multiply also proves scratch reuse).
    let before = ctx.transfer_stats();
    let prod = ctx.multiply(&a, &b, &keys.relin);
    let prod2 = ctx.multiply(&b, &a, &keys.relin);
    let steady = ctx.transfer_stats().since(&before);
    assert_eq!(
        steady.host_transfers(),
        0,
        "steady-state multiply chain crossed the bus: {steady:?}"
    );
    assert_eq!(prod.residency(), Residency::DeviceOnly);

    // Decrypt/decode are the sync points — and the math still holds.
    let out = ctx.decode(&ctx.decrypt(&prod, &keys.secret));
    assert!((out[0] - 7.5).abs() < 1e-2, "got {}", out[0]);
    let out2 = ctx.decode(&ctx.decrypt(&prod2, &keys.secret));
    assert!((out2[0] - 7.5).abs() < 1e-2, "got {}", out2[0]);
}

/// A steady rescale allocates nothing: each component's lifted rows go
/// to a grow-only buffer of the evaluator, its own allocation from row 0
/// (so at K > 1 each lifted row stays on its accumulator row's shard).
/// Checked on Sim and on Sharded K = 2, 3, with the warm-up's bits.
#[test]
fn steady_rescale_allocates_nothing() {
    let params = sim_params();
    let backends: [Box<dyn NttBackend>; 3] = [
        Box::new(SimBackend::titan_v()),
        Box::new(ShardedBackend::titan_v(2, params.n())),
        Box::new(ShardedBackend::titan_v(3, params.n())),
    ];
    let synced = |mut ct: Ciphertext| {
        ct.sync();
        let (c0, c1) = ct.components();
        (c0.clone(), c1.clone())
    };
    for backend in backends {
        let name = backend.name();
        let ctx = HeContext::with_backend(params, backend).unwrap();
        let keys = ctx.keygen(&mut sampling::seeded_rng(42));
        let ct = ctx.encrypt(
            &ctx.encode(&[2.5, -1.0]),
            &keys.public,
            &mut sampling::seeded_rng(7),
        );
        let (mut warm, mut steady) = (ct.clone(), ct.clone());
        ctx.rescale(&mut warm);
        let before = ctx.transfer_stats();
        ctx.rescale(&mut steady);
        let allocs = ctx.transfer_stats().since(&before).allocs;
        assert_eq!(allocs, 0, "{name}: a steady rescale allocated");
        assert_eq!(synced(steady), synced(warm), "{name}: rescale bits");
    }
}

/// Ciphertext::sync is the explicit sync point for component access.
#[test]
fn ciphertext_sync_exposes_components() {
    let ctx = HeContext::with_backend(sim_params(), Box::new(SimBackend::titan_v())).unwrap();
    let keys = ctx.keygen(&mut sampling::seeded_rng(1));
    let mut rng = sampling::seeded_rng(2);
    let mut ct = ctx.encrypt(&ctx.encode(&[1.0]), &keys.public, &mut rng);
    assert_eq!(ct.residency(), Residency::DeviceOnly);
    ct.sync();
    assert_eq!(ct.residency(), Residency::Mirrored { host_dirty: false });
    let (c0, c1) = ct.components();
    assert_eq!(c0.level(), c1.level());
    let _ = c0.flat(); // host read is now valid
}

/// The CPU context stays host-resident (the identity backend prefers no
/// staging) and behaves exactly as before: keygen, encryption, and the
/// key switches of a relinearizing multiply and a rotation never stage
/// through the arena.
#[test]
fn cpu_context_stays_host_resident() {
    let ctx = HeContext::new(sim_params()).unwrap();
    assert!(!ctx.is_resident());
    let keys = ctx.keygen(&mut sampling::seeded_rng(3));
    let mut rng = sampling::seeded_rng(4);
    let ct = ctx.encrypt(&ctx.encode(&[2.0]), &keys.public, &mut rng);
    assert_eq!(ct.residency(), Residency::HostOnly);
    let rtk = ctx.keygen_rotation(&keys.secret, &[5], &[ct.level()], &mut rng);
    let prod = ctx.multiply(&ct, &ct, &keys.relin);
    let rot = ctx.rotate(&ct, 5, &rtk);
    assert_eq!(prod.residency(), Residency::HostOnly);
    assert_eq!(rot.residency(), Residency::HostOnly);
    assert_eq!(ctx.transfer_stats().host_transfers(), 0);
    let out = ctx.decode(&ctx.decrypt(&prod, &keys.secret));
    assert!((out[0] - 4.0).abs() < 1e-2, "got {}", out[0]);
}

/// `multiply_plain` uses a prepared (resident, transformed) plaintext
/// as-is: on `SimBackend` it gives the bits of the fresh-plaintext call
/// and of the CPU context. A host-only ciphertext stays on the host: its
/// product with a fresh plaintext and its decrypt run in host batches,
/// as a served group of one does, and come back host-only.
#[test]
fn multiply_plain_takes_a_prepared_plaintext() {
    let bits = |mut ct: Ciphertext| {
        ct.sync();
        let (c0, c1) = ct.components();
        [c0.flat(), c1.flat()].concat()
    };
    let values = [0.5, 3.0];
    let encrypt = |ctx: &HeContext, pk: &PublicKey| {
        let pt = ctx.encode(&[1.5, -2.0]);
        ctx.encrypt(&pt, pk, &mut sampling::seeded_rng(12))
    };
    let cpu = HeContext::new(sim_params()).unwrap();
    let keys = cpu.keygen(&mut sampling::seeded_rng(11));
    let host_ct = encrypt(&cpu, &keys.public);
    let want = bits(cpu.multiply_plain(&host_ct, &cpu.encode(&values)));

    let sim = HeContext::with_backend(sim_params(), Box::new(SimBackend::titan_v())).unwrap();
    let dev_keys = sim.adopt_keys(&keys);
    let ct = encrypt(&sim, &dev_keys.public);
    let pt = sim.encode(&values);
    let prepared = sim.prepare_plaintext(&pt, ct.level());
    assert_eq!(bits(sim.multiply_plain(&ct, &pt)), want, "fresh");
    assert_eq!(bits(sim.multiply_plain(&ct, &prepared)), want, "prepared");

    let product = sim.multiply_plain(&host_ct, &pt);
    assert_eq!(
        product.residency(),
        Residency::HostOnly,
        "host-only product"
    );
    assert_eq!(bits(product), want, "host-only");
    let decrypted = sim.decrypt(&host_ct, &dev_keys.secret);
    assert_eq!(decrypted.poly().residency(), Residency::HostOnly);
    assert_eq!(
        decrypted,
        cpu.decrypt(&host_ct, &keys.secret),
        "host-only decrypt"
    );
}

/// Components and scale bits of a ciphertext, host-fresh.
fn ct_bits(ct: &Ciphertext) -> (RnsPoly, RnsPoly, u64) {
    let mut ct = ct.clone();
    ct.sync();
    let (c0, c1) = ct.components();
    (c0.clone(), c1.clone(), ct.scale().to_bits())
}

/// What `f` returns, and the launches it issues on `sim` as
/// `[pointwise + add, every other]`.
fn traced<R>(sim: &SimBackend, f: impl FnOnce() -> R) -> (R, [usize; 2]) {
    let from = sim.with_gpu(|gpu| gpu.trace.len());
    let r = f();
    let counts = sim.with_gpu(|gpu| {
        let launches = &gpu.trace[from..];
        let elementwise = launches
            .iter()
            .filter(|l| matches!(l.launch.label.as_str(), "sim-pointwise" | "sim-add"))
            .count();
        [elementwise, launches.len() - elementwise]
    });
    (r, counts)
}

/// The group forms are their single ops `k` at a time: on Cpu, Sim and
/// Sharded K = 2, a 3-job encrypt, plaintext-multiply and decrypt group
/// with the context's own keys equals three single ops in components
/// and scale bits. On Sim the group issues a third of the three single
/// ops' launches, element-wise included: a transform, product, sum,
/// rescale or inverse over every job's polynomials is one op.
#[test]
fn group_forms_equal_single_ops() {
    let params = sim_params();
    let sim = SimBackend::titan_v();
    let backends: [Box<dyn NttBackend>; 3] = [
        Box::<CpuBackend>::default(),
        sim.fork(),
        Box::new(ShardedBackend::titan_v(2, params.n())),
    ];
    let values = [vec![1.5, -2.0], vec![0.25], vec![3.0, 4.0, -5.0]];
    let weights = [vec![2.0], vec![-0.5, 1.0], vec![0.75]];
    let rng = |j: usize| sampling::seeded_rng(100 + j as u64);
    for backend in backends {
        let name = backend.name();
        let ctx = HeContext::with_backend(params, backend).unwrap();
        let keys = ctx.keygen(&mut sampling::seeded_rng(5));
        let pts: Vec<Plaintext> = values.iter().map(|v| ctx.encode(v)).collect();
        let ws: Vec<Plaintext> = weights.iter().map(|w| ctx.encode(w)).collect();
        let group = |f: &dyn Fn(&mut Evaluator) -> Vec<Ciphertext>| {
            traced(&sim, || ctx.with_pooled_evaluator(|ev| f(ev)))
        };

        let (cts, launches) = group(&|ev| {
            let mut jobs: Vec<_> = pts.iter().enumerate().map(|(j, pt)| (pt, rng(j))).collect();
            ctx.encrypt_group(ev, &keys.public, &mut jobs)
        });
        let (want, single) = traced(&sim, || {
            let encrypt = |(j, pt)| ctx.encrypt(pt, &keys.public, &mut rng(j));
            pts.iter().enumerate().map(encrypt).collect::<Vec<_>>()
        });
        assert_eq!(launches.map(|l| 3 * l), single, "{name}: encrypt launches");

        let jobs: Vec<(&Ciphertext, &Plaintext)> = cts.iter().zip(&ws).collect();
        let (prods, launches) = group(&|ev| ctx.multiply_plain_group(ev, &jobs));
        let (want_prods, single) = traced(&sim, || {
            let multiply = |(ct, w)| ctx.multiply_plain(ct, w);
            want.iter().zip(&ws).map(multiply).collect::<Vec<_>>()
        });
        assert_eq!(launches.map(|l| 3 * l), single, "{name}: multiply launches");

        let (outs, launches) = traced(&sim, || {
            let refs: Vec<&Ciphertext> = prods.iter().collect();
            ctx.with_pooled_evaluator(|ev| ctx.decrypt_group(ev, &keys.secret, &refs))
        });
        let (want_outs, single) = traced(&sim, || {
            let decrypt = |ct| ctx.decrypt(ct, &keys.secret);
            want_prods.iter().map(decrypt).collect::<Vec<_>>()
        });
        assert_eq!(launches.map(|l| 3 * l), single, "{name}: decrypt launches");

        for j in 0..3 {
            assert_eq!(ct_bits(&cts[j]), ct_bits(&want[j]), "{name} #{j}: encrypt");
            assert_eq!(
                ct_bits(&prods[j]),
                ct_bits(&want_prods[j]),
                "{name} #{j}: multiply"
            );
            assert_eq!(outs[j], want_outs[j], "{name} #{j}: decrypt");
            assert_eq!(outs[j].scale().to_bits(), want_outs[j].scale().to_bits());
        }
    }
    assert!(
        sim.with_gpu(|gpu| !gpu.trace.is_empty()),
        "Sim launched nothing"
    );
}

/// Nested checkouts take a second evaluator instead of deadlocking on a
/// single evaluator mutex (the pre-pool design would hang here).
#[test]
fn nested_operations_do_not_deadlock() {
    let ctx = HeContext::new(sim_params()).unwrap();
    let keys = ctx.keygen(&mut sampling::seeded_rng(5));
    let mut rng = sampling::seeded_rng(6);
    let a = ctx.encrypt(&ctx.encode(&[1.0]), &keys.public, &mut rng);
    let b = ctx.encrypt(&ctx.encode(&[2.0]), &keys.public, &mut rng);
    let sum = ctx.with_pooled_evaluator(|_held| {
        // One evaluator is checked out; a scheme op inside must fork or
        // reuse another, not block forever.
        ctx.add(&a, &b)
    });
    let out = ctx.decode(&ctx.decrypt(&sum, &keys.secret));
    assert!((out[0] - 3.0).abs() < 1e-4);
    assert!(
        ctx.evaluator_count() >= 2,
        "nested checkout must use a second evaluator (got {})",
        ctx.evaluator_count()
    );
}

/// Two threads drive one context concurrently; both make progress and
/// the results are correct. (With the old single evaluator mutex they
/// serialized completely; with the pool each thread gets its own
/// evaluator sharing one plan and one device memory.)
#[test]
fn concurrent_threads_share_one_context() {
    for backend in [
        Box::new(CpuBackend::default()) as Box<dyn NttBackend>,
        Box::new(SimBackend::titan_v()),
    ] {
        let ctx = HeContext::with_backend(sim_params(), backend).unwrap();
        let keys = ctx.keygen(&mut sampling::seeded_rng(8));
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|t| {
                    let (ctx, keys, barrier) = (&ctx, &keys, &barrier);
                    s.spawn(move || {
                        let mut rng = sampling::seeded_rng(100 + t);
                        let v = 2.0 + t as f64;
                        barrier.wait();
                        let a = ctx.encrypt(&ctx.encode(&[v]), &keys.public, &mut rng);
                        let b = ctx.encrypt(&ctx.encode(&[3.0]), &keys.public, &mut rng);
                        let prod = ctx.multiply(&a, &b, &keys.relin);
                        let out = ctx.decode(&ctx.decrypt(&prod, &keys.secret));
                        assert!((out[0] - 3.0 * v).abs() < 1e-2, "thread {t}: {}", out[0]);
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        assert!(ctx.evaluator_count() >= 1);
    }
}

/// The flagship residency gate: rotation keys and DFT diagonal
/// plaintexts upload once at `Bootstrapper::new`, EvalMod constants on
/// the first bootstrap — and from then on repeated `bootstrap()` calls
/// are pure device work. Three steady-state bootstraps cross the bus
/// zero times.
#[test]
fn repeated_bootstrap_has_zero_steady_state_transfers() {
    use ntt_warp::boot::{BootParams, Bootstrapper};
    use ntt_warp::gpu::SimBackend;
    use std::sync::Arc;

    let bp = BootParams::shallow();
    let ctx = Arc::new(
        HeContext::with_backend(bp.he_params(4, 50), Box::new(SimBackend::titan_v()))
            .expect("sim context builds"),
    );
    let mut rng = sampling::seeded_rng(41);
    let keys = ctx.keygen(&mut rng);
    let boot = Bootstrapper::new(Arc::clone(&ctx), &keys, bp, &mut rng);
    let pt = ctx.encode_with_scale(&[0.5, -0.25, 0.75], boot.input_scale());
    let ct = ctx.encrypt(&pt, &keys.public, &mut sampling::seeded_rng(42));
    let low = ctx.drop_to_level(&ct, 1);
    assert_eq!(low.residency(), Residency::DeviceOnly);

    // Warm-up: populates the EvalMod constant-plaintext cache (counted
    // uploads) and any lazily-built twiddle tables.
    let warm = boot.bootstrap(&low);
    assert_eq!(warm.residency(), Residency::DeviceOnly);

    // Steady state: every rotation key, diagonal and constant is
    // resident; three full pipelines move zero words over the bus.
    let before = ctx.transfer_stats();
    for _ in 0..3 {
        let out = boot.bootstrap(&low);
        assert_eq!(out.residency(), Residency::DeviceOnly);
    }
    let steady = ctx.transfer_stats().since(&before);
    assert_eq!(
        steady.host_transfers(),
        0,
        "steady-state bootstrap crossed the bus: {steady:?}"
    );
}
