//! Adapter for `ntt-math` (layer `math`): NTT-friendly primes and the
//! three modular multiplications.

use ntt_math::mont::Montgomery;
use ntt_math::{Barrett, ShoupMul};
use std::hint::black_box;
use std::time::Instant;

pub fn ntt_primes(bits: u32, two_n: u64, count: usize) -> Vec<u64> {
    ntt_math::ntt_primes(bits, two_n, count)
}

/// Nanoseconds per modular multiplication for Shoup, Barrett and
/// Montgomery: the median of `reps` timings of a dependent chain of
/// `iters` products modulo a 59-bit NTT prime. A dependent chain measures
/// latency, which tracks host speed steadily enough to normalize numbers
/// taken on different hosts.
pub fn modmul_ns(iters: u64, reps: usize) -> [f64; 3] {
    let p = ntt_primes(59, 1 << 17, 1)[0];
    let (w, y) = (p / 3 + 1, p / 5 + 7);
    let shoup = ShoupMul::new(w, p);
    let barrett = Barrett::new(p);
    let mont = Montgomery::new(p);
    [
        chain_ns(iters, reps, |x| shoup.mul(x)),
        chain_ns(iters, reps, |x| barrett.mul(x, y)),
        chain_ns(iters, reps, |x| mont.mul_plain(x, y)),
    ]
}

fn chain_ns(iters: u64, reps: usize, mul: impl Fn(u64) -> u64) -> f64 {
    let mut ns: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            let mut x = black_box(12345u64);
            for _ in 0..iters {
                x = mul(x);
            }
            black_box(x);
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    ns.sort_by(f64::total_cmp);
    ns[ns.len() / 2]
}
