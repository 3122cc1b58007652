//! Backend conformance: every registered [`NttBackend`] must compute the
//! same transforms, bit for bit.
//!
//! The suite runs three families of checks against **each** backend
//! (currently `CpuBackend` and the simulated-GPU `SimBackend`):
//!
//! * *fused ≡ strict* — `multiply_batch` against the seed's strict
//!   `ntt → mul_mod → intt` pipeline, property-based over random primes
//!   and sizes;
//! * *all-(p−1) bound* — worst-case magnitudes under the largest 62-bit
//!   NTT-friendly prime (the inputs that push Harvey lazy intermediates
//!   against the `4p < 2^64` bound on the CPU path);
//! * *thread determinism* — `CpuBackend` output is bit-identical for every
//!   thread policy.
//!
//! Plus the cross-substrate pin: `CpuBackend` ≡ `SimBackend` on every
//! trait operation, including stacked buffer-of-digits batches and the
//! full `he-lite` pipeline behind `HeContext::with_backend` — which on
//! `SimBackend` now runs **device-resident** (keys and ciphertexts live
//! in simulated GMEM; relinearization decomposes and accumulates on the
//! device), so the pin also covers the residency layer end to end.
//! Interleaved host/device schedules are property-tested separately in
//! `tests/residency.rs`.

use ntt_warp::core::backend::{
    BackendOp as Op, CpuBackend, Evaluator, LimbBatch, NttBackend, RingPlan,
};
use ntt_warp::core::engine::ThreadPolicy;
use ntt_warp::core::{ct, RnsPoly, RnsRing};
use ntt_warp::gpu::SimBackend;
use proptest::prelude::*;

/// Every execution substrate under test, freshly constructed.
fn registry() -> Vec<Box<dyn NttBackend>> {
    vec![
        Box::new(CpuBackend::default()),
        Box::new(SimBackend::titan_v()),
    ]
}

fn ring_with(n: usize, bits: u32, np: usize) -> RnsRing {
    RnsRing::new(n, ntt_warp::math::ntt_primes(bits, 2 * n as u64, np)).unwrap()
}

fn pseudo_random_rows(ring: &RnsRing, seed: u64) -> RnsPoly {
    let mut x = RnsPoly::zero(ring);
    for i in 0..ring.np() {
        let p = ring.basis().primes()[i];
        for (j, v) in x.row_mut(i).iter_mut().enumerate() {
            *v = (seed | 1)
                .wrapping_mul((j as u64).wrapping_add(0x9E37_79B9_7F4A_7C15))
                .wrapping_add((i as u64) << 40)
                % p;
        }
    }
    x
}

/// The seed's strict per-limb pipeline, kept verbatim as the oracle.
fn strict_multiply(ring: &RnsRing, a: &RnsPoly, b: &RnsPoly) -> RnsPoly {
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
            .map(|(&x, &y)| ntt_warp::math::mul_mod(x, y, t.modulus()))
            .collect();
        ct::intt(&mut prod, t);
        out.row_mut(i).copy_from_slice(&prod);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Fused multiply ≡ strict pipeline, for every backend, over random
    /// primes/sizes/batch widths.
    #[test]
    fn every_backend_multiply_matches_strict(
        (log_n, bits, np) in (2u32..=7, 50u32..=61, 1usize..=3),
        seed in any::<u64>(),
    ) {
        let ring = ring_with(1 << log_n, bits, np);
        let plan = RingPlan::new(&ring);
        let a = pseudo_random_rows(&ring, seed);
        let b = pseudo_random_rows(&ring, seed.rotate_left(21) ^ 0xF00D);
        let strict = strict_multiply(&ring, &a, &b);
        for mut be in registry() {
            let mut out = RnsPoly::zero(&ring);
            be.run(&plan, Op::MultiplyBatch {
                a: a.flat(),
                b: b.flat(),
                out: LimbBatch::from_poly(&mut out),
            });
            prop_assert_eq!(out.flat(), strict.flat(), "backend {}", be.name());
        }
    }

    /// Forward/inverse round trips are exact on every backend, and forward
    /// outputs agree with the scalar reference.
    #[test]
    fn every_backend_roundtrips_and_matches_reference(
        (log_n, np) in (2u32..=7, 1usize..=3),
        seed in any::<u64>(),
    ) {
        let ring = ring_with(1 << log_n, 59, np);
        let plan = RingPlan::new(&ring);
        let x = pseudo_random_rows(&ring, seed);
        let mut reference = x.clone();
        for i in 0..np {
            ct::ntt(reference.row_mut(i), ring.ring(i).table());
        }
        for mut be in registry() {
            let mut f = x.clone();
            be.run(&plan, Op::ForwardBatch(LimbBatch::from_poly(&mut f)));
            prop_assert_eq!(f.flat(), reference.flat(), "forward, backend {}", be.name());
            be.run(&plan, Op::InverseBatch(LimbBatch::from_poly(&mut f)));
            prop_assert_eq!(f.flat(), x.flat(), "roundtrip, backend {}", be.name());
        }
    }
}

/// Bootstrapping-scale conformance: forward ≡ strict CT reference and
/// `inverse ∘ forward` = id on **every** backend for N ∈ {2^12..2^17} —
/// the sizes where the Sim auto-router weighs the hierarchical 4-step
/// plan against the two-kernel SMEM split. One backend instance per
/// substrate is reused across sizes so the Sim calibrates each shape
/// once (the verdict cache is per backend family).
#[test]
fn every_backend_agrees_at_bootstrap_scale() {
    let mut backends = registry();
    for log_n in 12u32..=17 {
        let n = 1usize << log_n;
        let ring = ring_with(n, 59, 1);
        let plan = RingPlan::new(&ring);
        let x = pseudo_random_rows(&ring, 0xB007_0000 + u64::from(log_n));
        let mut reference = x.clone();
        ct::ntt(reference.row_mut(0), ring.ring(0).table());
        for be in &mut backends {
            let mut f = x.clone();
            be.run(&plan, Op::ForwardBatch(LimbBatch::from_poly(&mut f)));
            assert_eq!(
                f.flat(),
                reference.flat(),
                "forward, N=2^{log_n}, backend {}",
                be.name()
            );
            be.run(&plan, Op::InverseBatch(LimbBatch::from_poly(&mut f)));
            assert_eq!(
                f.flat(),
                x.flat(),
                "roundtrip, N=2^{log_n}, backend {}",
                be.name()
            );
        }
    }
}

/// Cpu ≡ Sim under a device-resident chain at N = 2^16 (the deep
/// bootstrapping ring): forward → pointwise-square → negate → inverse,
/// all device-side on the Sim, must be bit-identical to the host-only
/// CPU run.
#[test]
fn cpu_and_sim_agree_on_resident_chain_at_deep_ring() {
    use ntt_warp::core::backend::Evaluator;
    let ring = ring_with(1 << 16, 59, 2);
    let x = pseudo_random_rows(&ring, 0xDEE9);

    let chain = |ev: &mut Evaluator| -> RnsPoly {
        let mut a = x.clone();
        let mut be = x.clone();
        ev.make_resident(&mut a);
        ev.make_resident(&mut be);
        ev.to_evaluation(&mut a);
        ev.to_evaluation(&mut be);
        ev.mul_pointwise(&mut a, &be);
        ev.negate(&mut a);
        ev.to_coefficient(&mut a);
        a.sync();
        a
    };

    let cpu = chain(&mut Evaluator::cpu(&ring));
    let mut sim_ev = Evaluator::with_backend(&ring, Box::new(SimBackend::titan_v()));
    let sim = chain(&mut sim_ev);
    assert_eq!(cpu.flat(), sim.flat(), "resident chain at N=2^16");
}

/// Worst-case magnitudes: all-(p−1) rows under the largest 62-bit
/// NTT-friendly prime, on every backend.
#[test]
fn every_backend_survives_all_p_minus_one_at_lazy_bound() {
    let n = 64usize;
    let p = ntt_warp::math::ntt_prime(62, 2 * n as u64).expect("62-bit NTT prime exists");
    let ring = RnsRing::new(n, vec![p]).unwrap();
    let plan = RingPlan::new(&ring);
    let mut a = RnsPoly::zero(&ring);
    a.row_mut(0).fill(p - 1);
    let strict = strict_multiply(&ring, &a, &a);
    for mut be in registry() {
        let mut out = RnsPoly::zero(&ring);
        be.run(
            &plan,
            Op::MultiplyBatch {
                a: a.flat(),
                b: a.flat(),
                out: LimbBatch::from_poly(&mut out),
            },
        );
        assert_eq!(out.flat(), strict.flat(), "backend {}", be.name());
    }
}

/// CpuBackend is bit-deterministic across thread policies (and therefore
/// stays pinned to SimBackend regardless of `NTT_WARP_THREADS`).
#[test]
fn cpu_backend_thread_policies_are_bit_identical() {
    let ring = ring_with(256, 59, 4);
    let plan = RingPlan::new(&ring);
    let a = pseudo_random_rows(&ring, 0xAB);
    let b = pseudo_random_rows(&ring, 0xCD);
    let mut reference = RnsPoly::zero(&ring);
    CpuBackend::new(ThreadPolicy::Single).run(
        &plan,
        Op::MultiplyBatch {
            a: a.flat(),
            b: b.flat(),
            out: LimbBatch::from_poly(&mut reference),
        },
    );
    for threads in [2usize, 3, 8] {
        let mut be = CpuBackend::new(ThreadPolicy::Fixed(threads));
        let mut out = RnsPoly::zero(&ring);
        be.run(
            &plan,
            Op::MultiplyBatch {
                a: a.flat(),
                b: b.flat(),
                out: LimbBatch::from_poly(&mut out),
            },
        );
        assert_eq!(out, reference, "{threads} threads");
        let mut f = a.clone();
        be.run(&plan, Op::ForwardBatch(LimbBatch::from_poly(&mut f)));
        let mut fs = a.clone();
        CpuBackend::new(ThreadPolicy::Single)
            .run(&plan, Op::ForwardBatch(LimbBatch::from_poly(&mut fs)));
        assert_eq!(f, fs, "forward batch, {threads} threads");
    }
}

/// Cpu ≡ Sim on pointwise and on stacked (buffer-of-digits) batches — the
/// exact shape `he-lite` key switching submits.
#[test]
fn cpu_and_sim_agree_on_stacked_digit_batches() {
    let ring = ring_with(32, 59, 3);
    let plan = RingPlan::new(&ring);
    let polys: Vec<RnsPoly> = (0..4)
        .map(|k| pseudo_random_rows(&ring, 0x51 * k + 7))
        .collect();
    let stacked: Vec<u64> = polys.iter().flat_map(|p| p.flat().to_vec()).collect();

    let mut cpu = CpuBackend::default();
    let mut sim = SimBackend::titan_v();
    let (mut hc, mut hs) = (stacked.clone(), stacked.clone());
    cpu.run(&plan, Op::ForwardBatch(LimbBatch::new(&mut hc, 32, 3)));
    sim.run(&plan, Op::ForwardBatch(LimbBatch::new(&mut hs, 32, 3)));
    assert_eq!(hc, hs, "stacked forward");

    // Pointwise on the transformed stack (rhs = the stack itself).
    let rhs = hc.clone();
    cpu.run(
        &plan,
        Op::PointwiseBatch {
            acc: LimbBatch::new(&mut hc, 32, 3),
            rhs: &rhs,
        },
    );
    sim.run(
        &plan,
        Op::PointwiseBatch {
            acc: LimbBatch::new(&mut hs, 32, 3),
            rhs: &rhs,
        },
    );
    assert_eq!(hc, hs, "stacked pointwise");

    cpu.run(&plan, Op::InverseBatch(LimbBatch::new(&mut hc, 32, 3)));
    sim.run(&plan, Op::InverseBatch(LimbBatch::new(&mut hs, 32, 3)));
    assert_eq!(hc, hs, "stacked inverse");
}

/// The full `he-lite` pipeline (keygen, encrypt, multiply/relinearize/
/// rescale, decrypt) produces the same ciphertexts and plaintexts on both
/// substrates — the Evaluator swap really is one line. The Sim run is
/// device-resident end to end (the CPU run is host-only), so this also
/// pins host chains ≡ resident chains bit for bit.
#[test]
fn he_pipeline_is_bit_identical_across_backends() {
    use ntt_warp::he::{sampling, HeContext, HeLiteParams};
    let params = HeLiteParams {
        log_n: 5,
        prime_bits: 50,
        levels: 3,
        scale_bits: 46,
        gadget_bits: 10,
        error_eta: 4,
    };
    let run = |backend: Box<dyn NttBackend>| {
        let ctx = HeContext::with_backend(params, backend).unwrap();
        let keys = ctx.keygen(&mut sampling::seeded_rng(42));
        let mut rng = sampling::seeded_rng(7);
        let a = ctx.encrypt(&ctx.encode(&[2.5, -1.0]), &keys.public, &mut rng);
        let b = ctx.encrypt(&ctx.encode(&[3.0, 0.5]), &keys.public, &mut rng);
        let prod = ctx.multiply(&a, &b, &keys.relin);
        let pt = ctx.decrypt(&prod, &keys.secret);
        (ctx.decode(&pt), prod.level())
    };
    let (cpu_out, cpu_level) = run(Box::<CpuBackend>::default());
    let (sim_out, sim_level) = run(Box::new(SimBackend::titan_v()));
    assert_eq!(cpu_level, sim_level);
    // Same seeds, bit-identical backends => bit-identical decodes.
    assert_eq!(cpu_out, sim_out);
    // And the arithmetic is actually right.
    assert!((cpu_out[0] - 7.5).abs() < 1e-2, "got {}", cpu_out[0]);
}

/// Evaluators over both substrates expose the right names and agree on a
/// multiply (the user-facing swap surface).
#[test]
fn evaluator_substrate_swap_is_transparent() {
    let ring = ring_with(16, 59, 2);
    let a = RnsPoly::from_i64_coeffs(&ring, &[1, 2, -3]);
    let b = RnsPoly::from_i64_coeffs(&ring, &[4, 0, 5]);
    let mut cpu_ev = Evaluator::cpu(&ring);
    let mut sim_ev = Evaluator::with_backend(&ring, Box::new(SimBackend::titan_v()));
    assert_eq!(cpu_ev.backend_name(), "cpu");
    assert_eq!(sim_ev.backend_name(), "gpu-sim");
    assert_eq!(cpu_ev.multiply(&a, &b), sim_ev.multiply(&a, &b));
}

/// Concurrent pool conformance: the same batch of `he-lite` op sequences
/// driven through the evaluator pool by several threads yields identical
/// ciphertexts on `CpuBackend` and `SimBackend`, **regardless of stream
/// assignment** — which pool member (hence which device stream, on the
/// sim) executes any given operation is scheduler-dependent, and must
/// never show up in the bits. Each chain's ops are internally ordered and
/// chains are independent, so per-chain results are deterministic even
/// though the cross-chain interleaving is not.
#[test]
fn concurrent_pool_chains_are_bit_identical_across_backends() {
    use ntt_warp::he::{sampling, HeContext, HeLiteParams};
    const CHAINS: usize = 4;
    let params = HeLiteParams {
        log_n: 5,
        prime_bits: 50,
        levels: 3,
        scale_bits: 46,
        gadget_bits: 10,
        error_eta: 4,
    };
    // One chain = encrypt two values, multiply, add, sub — returns the
    // synced raw ciphertext rows (bit-level, not just decoded values).
    let run = |backend: Box<dyn NttBackend>| -> Vec<Vec<u64>> {
        let ctx = HeContext::with_backend(params, backend).unwrap();
        let keys = ctx.keygen(&mut sampling::seeded_rng(42));
        let barrier = std::sync::Barrier::new(CHAINS);
        let mut results: Vec<Vec<u64>> = vec![Vec::new(); CHAINS];
        std::thread::scope(|s| {
            let handles: Vec<_> = results
                .iter_mut()
                .enumerate()
                .map(|(i, slot)| {
                    let (ctx, keys, barrier) = (&ctx, &keys, &barrier);
                    s.spawn(move || {
                        let mut rng = sampling::seeded_rng(1000 + i as u64);
                        barrier.wait();
                        let a = ctx.encrypt(&ctx.encode(&[i as f64 + 0.5]), &keys.public, &mut rng);
                        let b = ctx.encrypt(&ctx.encode(&[2.0, -1.0]), &keys.public, &mut rng);
                        let mut prod = ctx.multiply(&a, &b, &keys.relin);
                        let sum = ctx.add(&a, &b);
                        let mut diff = ctx.sub(&sum, &b);
                        prod.sync();
                        diff.sync();
                        let (p0, p1) = prod.components();
                        let (d0, d1) = diff.components();
                        let mut bits = Vec::new();
                        for poly in [p0, p1, d0, d1] {
                            bits.extend_from_slice(poly.flat());
                        }
                        *slot = bits;
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        results
    };
    let cpu = run(Box::<CpuBackend>::default());
    let sim = run(Box::new(SimBackend::titan_v()));
    for (i, (c, s)) in cpu.iter().zip(&sim).enumerate() {
        assert!(!c.is_empty(), "chain {i} produced no bits");
        assert_eq!(c, s, "chain {i} diverged between Cpu and Sim pools");
    }
}

/// The multi-view device ops against `CpuBackend`, on Sim and on Sharded
/// K ∈ {1, 2, 3}, at N ∈ {4, 64, 256, 1024}: one `Forward`/`Inverse`
/// over four views at once, the one-source-prime `BaseConvert` (plain
/// and centered) over two, and a `Forward` with a rescale fold.
///
/// The views cover the shapes the rescale and mod-raise produce and
/// more: separate allocations, offset sub-views of one 7-row allocation
/// (whose rows start on another shard than the view's row 0 for K > 1),
/// 1-row views under a non-zero prime, and a fold accumulator whose
/// partition is misaligned with its lifted rows at K = 3 (gathered over
/// the link). Every allocation the ops write is compared after every op,
/// except a fold's lifted views, which it leaves as scratch. A freed
/// view is `Fatal` on every backend and moves no byte.
#[test]
fn multi_view_transforms_and_base_conversion_match_cpu() {
    use ntt_warp::core::backend::{BackendError, DeviceBuf, PolyView, SubScale};
    use ntt_warp::gpu::ShardedBackend;
    for log_n in [2u32, 6, 8, 10] {
        let n = 1usize << log_n;
        let ring = ring_with(n, 59, 5);
        let plan = RingPlan::new(&ring);
        let p_min = *ring.basis().primes().iter().min().unwrap();
        // Every op, in order, on one backend; a snapshot of the compared
        // allocations after each.
        let run = |be: &mut dyn NttBackend| -> Vec<Vec<u64>> {
            let mem = be.memory();
            let alloc = |rows: usize, seed: u64| -> DeviceBuf {
                // Below every prime, so a row is canonical under any of
                // them and straddles every q/2 the centered lift tests.
                let data: Vec<u64> = (0..rows * n)
                    .map(|i| (seed << 32 | i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) % p_min)
                    .collect();
                let mut m = mem.lock().unwrap();
                let buf = m.alloc(rows * n);
                m.upload(buf, &data);
                buf
            };
            let (a, big, b, c) = (alloc(3, 1), alloc(7, 2), alloc(1, 3), alloc(2, 4));
            let (t0, t1) = (alloc(2, 5), alloc(2, 6));
            let snapshot = || -> Vec<u64> {
                let mut m = mem.lock().unwrap();
                let mut out = Vec::new();
                for buf in [a, big, b, c] {
                    let mut rows = vec![0u64; buf.len()];
                    m.download(buf, &mut rows);
                    out.extend(rows);
                }
                out
            };
            let rows = |buf: DeviceBuf, first: usize, count: usize| buf.sub(first * n, count * n);
            let mut snaps = vec![snapshot()];
            let views = [
                PolyView::new(a, 0..3),
                PolyView::new(rows(big, 2, 3), 0..3),
                PolyView::new(rows(big, 6, 1), 4..5),
                PolyView::new(b, 2..3),
            ];
            be.run(
                &plan,
                Op::Forward {
                    views: &views,
                    fold: None,
                },
            );
            snaps.push(snapshot());
            be.run(&plan, Op::Inverse { views: &views });
            snaps.push(snapshot());
            let op = Op::BaseConvert {
                src: &[PolyView::new(b, 2..3), PolyView::new(rows(big, 6, 1), 4..5)],
                dst: &[PolyView::new(c, 0..2), PolyView::new(rows(big, 0, 2), 1..3)],
                centered: false,
            };
            be.run(&plan, op);
            snaps.push(snapshot());
            let op = Op::BaseConvert {
                src: &[PolyView::new(rows(a, 2, 1), 2..3), PolyView::new(b, 2..3)],
                dst: &[
                    PolyView::new(t0, 0..2),
                    PolyView::new(rows(big, 3, 3), 0..3),
                ],
                centered: true,
            };
            be.run(&plan, op);
            snaps.push(snapshot());
            let fold = SubScale {
                acc: &[rows(a, 0, 2), rows(big, 4, 2)],
                dropped: 4,
            };
            let lifted = [PolyView::new(t0, 0..2), PolyView::new(t1, 0..2)];
            let op = Op::Forward {
                views: &lifted,
                fold: Some(fold),
            };
            be.run(&plan, op);
            snaps.push(snapshot());
            mem.lock().unwrap().free(t1);
            let op = Op::Forward {
                views: &lifted,
                fold: None,
            };
            let err = be.try_run(&plan, op).expect_err("freed view");
            assert_eq!(
                err,
                BackendError::Fatal { op: "dev_forward" },
                "{}",
                be.name()
            );
            assert_eq!(
                snapshot(),
                snaps[snaps.len() - 1],
                "{}: freed view moved data",
                be.name()
            );
            snaps
        };
        let want = run(&mut CpuBackend::default());
        assert_eq!(want[2], want[0], "N={n}: forward -> inverse round trip");
        let devices: Vec<(String, Box<dyn NttBackend>)> = std::iter::once((
            "sim".to_string(),
            Box::new(SimBackend::titan_v()) as Box<dyn NttBackend>,
        ))
        .chain([1, 2, 3].map(|k| {
            let be: Box<dyn NttBackend> = Box::new(ShardedBackend::titan_v(k, n));
            (format!("sharded k={k}"), be)
        }))
        .collect();
        for (name, mut be) in devices {
            let got = run(&mut *be);
            let steps = [
                "upload",
                "forward",
                "inverse",
                "plain lift",
                "centered lift",
                "fold",
            ];
            for ((step, g), w) in steps.iter().zip(&got).zip(&want) {
                assert!(g == w, "N={n}, {name}: {step} departs from Cpu");
            }
        }
    }
}
