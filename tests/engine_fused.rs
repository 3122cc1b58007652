//! The fused lazy-reduction execution engine against the strict path.
//!
//! The engine (`ntt_core::engine`) runs polynomial products as
//! `ntt_lazy → lazy pointwise → intt_lazy` with a single final reduction.
//! These suites pin it, property-based, to the pre-engine strict pipeline
//! (`ntt → mul_mod pointwise → intt`, every stage fully reduced), cover
//! the worst-case inputs allowed by the `[0, 4p)` Harvey bound, and check
//! that the residue-parallel path is bit-deterministic across thread
//! counts.

use ntt_warp::core::engine::{NttExecutor, ThreadPolicy};
use ntt_warp::core::poly::Representation;
use ntt_warp::core::{ct, NegacyclicRing, NttTable, Polynomial, RnsPoly, RnsRing};
use proptest::prelude::*;

/// The seed's strict single-prime multiply, kept verbatim as the oracle.
fn strict_multiply(table: &NttTable, a: &[u64], b: &[u64]) -> Vec<u64> {
    let p = table.modulus();
    let mut na = a.to_vec();
    let mut nb = b.to_vec();
    ct::ntt(&mut na, table);
    ct::ntt(&mut nb, table);
    let mut prod: Vec<u64> = na
        .iter()
        .zip(&nb)
        .map(|(&x, &y)| ntt_warp::math::mul_mod(x, y, p))
        .collect();
    ct::intt(&mut prod, table);
    prod
}

fn pseudo_random_input(n: usize, p: u64, seed: u64) -> Vec<u64> {
    (0..n as u64)
        .map(|i| {
            (seed | 1)
                .wrapping_mul(i.wrapping_add(0x9E37_79B9_7F4A_7C15))
                .wrapping_add(seed >> 13)
                % p
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fused vs strict, random 50–62-bit primes, log_n ∈ 1..=11 (the
    /// cheap bulk of the sweep; 12..=14 are pinned below).
    #[test]
    fn fused_matches_strict_small((log_n, bits) in (1u32..=11, 50u32..=62), seed in any::<u64>()) {
        let n = 1usize << log_n;
        let table = NttTable::new_with_bits(n, bits).unwrap();
        let ring = NegacyclicRing::new(n, table.modulus()).unwrap();
        let a = pseudo_random_input(n, table.modulus(), seed);
        let b = pseudo_random_input(n, table.modulus(), seed.rotate_left(17) ^ 0xDEAD_BEEF);
        let expect = strict_multiply(&table, &a, &b);
        let mut ex = NttExecutor::new(ThreadPolicy::Single);
        let got = ex.negacyclic_multiply(
            &ring,
            &Polynomial::from_coeffs(a, n),
            &Polynomial::from_coeffs(b, n),
        );
        prop_assert_eq!(got.coeffs(), &expect[..]);
    }

    /// Fused RNS multiply vs the strict per-limb pipeline on random bases.
    #[test]
    fn fused_rns_matches_strict(
        (log_n, bits, np) in (2u32..=9, 50u32..=62, 1usize..=4),
        seed in any::<u64>(),
    ) {
        let n = 1usize << log_n;
        let primes = ntt_warp::math::ntt_primes(bits, 2 * n as u64, np);
        let ring = RnsRing::new(n, primes.clone()).unwrap();
        let mut a = RnsPoly::zero(&ring);
        let mut b = RnsPoly::zero(&ring);
        for (i, &p) in primes.iter().enumerate() {
            a.row_mut(i).copy_from_slice(&pseudo_random_input(n, p, seed ^ i as u64));
            b.row_mut(i).copy_from_slice(&pseudo_random_input(n, p, seed.rotate_right(9) ^ (i as u64) << 8));
        }
        let got = ring.multiply(&a, &b); // routed through the fused engine
        prop_assert_eq!(got.repr(), Representation::Coefficient);
        for (i, &p) in primes.iter().enumerate() {
            let t = ring.ring(i).table();
            let expect = strict_multiply(t, a.row(i), b.row(i));
            prop_assert_eq!(got.row(i), &expect[..], "limb {} (p = {})", i, p);
        }
    }
}

/// The expensive tail of the size sweep (log_n ∈ 12..=15 and 17), one seed
/// each.
#[test]
fn fused_matches_strict_large_sizes() {
    for (log_n, bits) in [(12u32, 50u32), (13, 55), (14, 62), (15, 59), (17, 62)] {
        let n = 1usize << log_n;
        let table = NttTable::new_with_bits(n, bits).unwrap();
        let ring = NegacyclicRing::new(n, table.modulus()).unwrap();
        let a = pseudo_random_input(n, table.modulus(), 0xC0FF_EE00 + u64::from(log_n));
        let b = pseudo_random_input(n, table.modulus(), 0xBAAD_F00D ^ u64::from(bits));
        let expect = strict_multiply(&table, &a, &b);
        let mut ex = NttExecutor::new(ThreadPolicy::Single);
        let got = ex.negacyclic_multiply(
            &ring,
            &Polynomial::from_coeffs(a, n),
            &Polynomial::from_coeffs(b, n),
        );
        assert_eq!(got.coeffs(), &expect[..], "log_n = {log_n}, bits = {bits}");
    }
}

/// Worst-case magnitudes: all-(p-1) operands under the largest 62-bit
/// NTT-friendly prime — the inputs that push Harvey intermediates right up
/// against the `4p < 2^64` lazy bound.
#[test]
fn fused_survives_worst_case_near_lazy_bound() {
    for log_n in [4u32, 8, 12] {
        let n = 1usize << log_n;
        let p = ntt_warp::math::ntt_prime(62, 2 * n as u64).expect("62-bit NTT prime exists");
        assert!(u128::from(p) < 1u128 << 62, "4p must stay below 2^64");
        let table = NttTable::new(n, p).unwrap();
        let ring = NegacyclicRing::new(n, p).unwrap();
        let a = vec![p - 1; n];
        let expect = strict_multiply(&table, &a, &a);
        let mut ex = NttExecutor::new(ThreadPolicy::Single);
        let am = Polynomial::from_coeffs(a, n);
        let got = ex.negacyclic_multiply(&ring, &am, &am);
        assert_eq!(got.coeffs(), &expect[..], "log_n = {log_n}");
    }
}

/// Residue-parallel determinism: 1 thread and N threads produce
/// bit-identical products (limbs are independent mod their own primes, so
/// this must hold exactly, not approximately).
#[test]
fn threaded_execution_is_deterministic() {
    // Large enough that the engine's minimum-work-per-thread cutoff does
    // not collapse the run to one thread: the parallel branch really runs.
    let n = 8192;
    let ring = RnsRing::new(n, ntt_warp::math::ntt_primes(59, 2 * n as u64, 8)).unwrap();
    let mut a = RnsPoly::zero(&ring);
    let mut b = RnsPoly::zero(&ring);
    for i in 0..8 {
        let p = ring.basis().primes()[i];
        a.row_mut(i)
            .copy_from_slice(&pseudo_random_input(n, p, 0x1111 * (i as u64 + 1)));
        b.row_mut(i)
            .copy_from_slice(&pseudo_random_input(n, p, 0x7777 ^ (i as u64) << 20));
    }
    let mut single = NttExecutor::new(ThreadPolicy::Single);
    let reference = single.rns_multiply(&ring, &a, &b);
    for threads in [2usize, 3, 5, 8, 16] {
        let mut ex = NttExecutor::new(ThreadPolicy::Fixed(threads));
        assert_eq!(
            ex.rns_multiply(&ring, &a, &b),
            reference,
            "{threads} threads"
        );
        // Batched transforms must be thread-count-invariant too.
        let mut ta = a.clone();
        ex.forward_rows(&ring, ta.flat_mut());
        let mut sa = a.clone();
        single.forward_rows(&ring, sa.flat_mut());
        assert_eq!(ta, sa, "forward batch, {threads} threads");
    }
}

/// Steady-state multiplies reuse the workspace: zero buffer growth after
/// the first (warmup) call, across both the single-prime and RNS paths.
#[test]
fn steady_state_multiply_does_not_allocate() {
    let n = 512;
    let ring = RnsRing::new(n, ntt_warp::math::ntt_primes(55, 2 * n as u64, 4)).unwrap();
    let mut a = RnsPoly::zero(&ring);
    let mut b = RnsPoly::zero(&ring);
    for i in 0..4 {
        let p = ring.basis().primes()[i];
        a.row_mut(i).copy_from_slice(&pseudo_random_input(n, p, 3));
        b.row_mut(i).copy_from_slice(&pseudo_random_input(n, p, 5));
    }
    let mut ex = NttExecutor::new(ThreadPolicy::Single);
    let mut out = RnsPoly::zero(&ring);
    ex.rns_multiply_into(&ring, &a, &b, &mut out);
    let warm = ex.workspace().reallocs();
    assert!(warm > 0, "warmup should have grown the workspace");
    for _ in 0..16 {
        ex.rns_multiply_into(&ring, &a, &b, &mut out);
    }
    assert_eq!(
        ex.workspace().reallocs(),
        warm,
        "steady state must not reallocate"
    );
}
