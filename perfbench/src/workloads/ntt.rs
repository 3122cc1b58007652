//! `ntt`: the paper's Table II regime. One RNS polynomial at N = 2^16
//! with 16 × 59-bit primes, device-resident, transformed forward then
//! inverse on the simulated GPU and on the CPU engine. Forward outputs and
//! roundtrip outputs are compared bit for bit across the two, and the
//! roundtrip must return the input. A few large launches bound by DRAM
//! traffic: NTT-kernel changes move this workload; key-switch, launch
//! overhead and serving changes bypass it.

use super::{ms_since, note_rss, sim_call, timed, Budget, Pass};
use crate::layers::core::{self, Engine, Poly, Ring};
use crate::layers::gpu_sim::{Device, Window};
use crate::layers::ntt_gpu;
use crate::report::{median, Rng};
use crate::trace;
use std::time::Instant;

pub const LOG_N: u32 = 16;
pub const NP: usize = 16;
const PRIME_BITS: u32 = 59;

pub struct State {
    log_n: u32,
    np: usize,
    ring: Ring,
    sim: Engine,
    dev: Device,
    cpu: Engine,
    inputs: Rng,
    /// Forward-NTT kernel family the simulated backend routes this shape to.
    pub route: &'static str,
    pub pointwise: String,
    /// Flip one bit of the simulated output before the checks (the
    /// benchmark's own test that its checks catch a wrong answer).
    pub tamper: bool,
}

pub fn setup(seed: u64) -> State {
    setup_at(seed, LOG_N, NP)
}

pub fn setup_at(seed: u64, log_n: u32, np: usize) -> State {
    let ring = core::ring(log_n, PRIME_BITS, np);
    let (backend, dev) = ntt_gpu::sim_backend();
    let mut sim = Engine::with_backend(&ring, backend);
    let mut cpu = Engine::cpu(&ring, false);
    // Warm-up: the first simulated forward uploads the plan's tables and
    // calibrates the forward route; the CPU pair sizes its workspaces.
    let x = core::random_poly(&ring, &mut Rng::new(seed, 1));
    let mut xs = x.clone();
    sim.upload(&mut xs);
    let m = dev.mark();
    sim.forward(&mut xs);
    let route = dev.since(&m, true).route.unwrap_or("none");
    let mut xc = x;
    cpu.forward(&mut xc);
    cpu.inverse(&mut xc);
    State {
        pointwise: core::pointwise_verdicts(&ring),
        log_n,
        np,
        ring,
        sim,
        dev,
        cpu,
        inputs: Rng::new(seed, 2),
        route,
        tamper: false,
    }
}

/// One request's measurements.
struct Op {
    fwd: Window,
    inv: Window,
    sim_ms: f64,
    cpu_fwd_ms: f64,
    cpu_inv_ms: f64,
    exact: bool,
}

fn one_op(st: &mut State, x: &Poly, req: u64, detail: bool, p: &mut Pass) -> Op {
    let mut xs = x.clone();
    trace::span("ntt-gpu.upload", req, || st.sim.upload(&mut xs));
    let ((), fwd, fwd_ms) = sim_call(&st.dev, "ntt-gpu.forward", req, detail, || {
        st.sim.forward(&mut xs)
    });
    let fwd_sim = trace::span("ntt-gpu.download", req, || core::residues(&mut xs));
    let ((), inv, inv_ms) = sim_call(&st.dev, "ntt-gpu.inverse", req, detail, || {
        st.sim.inverse(&mut xs)
    });
    let mut out_sim = trace::span("ntt-gpu.download", req, || core::residues(&mut xs));

    let mut xc = x.clone();
    let (_, cpu_fwd_ms) = timed("core.forward", req, || st.cpu.forward(&mut xc));
    let fwd_cpu = core::residues(&mut xc);
    let (_, cpu_inv_ms) = timed("core.inverse", req, || st.cpu.inverse(&mut xc));
    let out_cpu = core::residues(&mut xc);

    if st.tamper {
        out_sim[0] ^= 1;
    }
    let exact = trace::span("bench.check", req, || {
        let mut problems = Vec::new();
        if fwd_sim != fwd_cpu {
            problems.push("forward outputs differ between Sim and Cpu".to_string());
        }
        if out_sim != out_cpu {
            problems.push("roundtrip outputs differ between Sim and Cpu".to_string());
        }
        if out_cpu != x.flat() {
            problems.push("inverse(forward(x)) != x".to_string());
        }
        let exact = problems.is_empty();
        p.check(req, problems);
        exact
    });
    Op {
        fwd,
        inv,
        sim_ms: fwd_ms + inv_ms,
        cpu_fwd_ms,
        cpu_inv_ms,
        exact,
    }
}

/// Transform pairs until the budget is spent. `detail` also reads the
/// launch-trace tails, measures the CPU thread speedup and runs Table II
/// at this shape.
pub fn pass(st: &mut State, budget: Budget, detail: bool) -> Pass {
    let mut p = Pass::default();
    let q_bits = core::modulus_bits(&st.ring);
    let start = Instant::now();
    let mut ops: Vec<Op> = Vec::new();
    loop {
        let req = ops.len() as u64;
        let x = trace::span("core.random_poly", req, || {
            core::random_poly(&st.ring, &mut st.inputs)
        });
        let op = trace::span("ntt.op", req, || one_op(st, &x, req, detail, &mut p));
        p.win.add(&op.fwd);
        p.win.add(&op.inv);
        ops.push(op);
        note_rss(&mut p, ops.len());
        if budget.spent(start, ops.len()) {
            break;
        }
    }

    let n = ops.len();
    let col = |f: &dyn Fn(&Op) -> f64| ops.iter().map(f).collect::<Vec<f64>>();
    p.ops = n as u64;
    p.host_s_per_launch =
        col(&|o| o.sim_ms).iter().sum::<f64>() / 1e3 / p.win.launches.max(1) as f64;
    p.put(
        "device_ms",
        median(&col(&|o| (o.fwd.device_s + o.inv.device_s) * 1e3)),
        "model-ms",
        n,
    );
    p.put("sim_wall_ms", median(&col(&|o| o.sim_ms)), "ms", n);
    p.put(
        "cpu_wall_ms",
        median(&col(&|o| o.cpu_fwd_ms + o.cpu_inv_ms)),
        "ms",
        n,
    );
    p.put(
        "precision_bits",
        median(&col(&|o| if o.exact { q_bits } else { 0.0 })),
        "bits",
        n,
    );

    p.layer(
        "ntt-gpu.forward_us",
        median(&col(&|o| o.fwd.device_s * 1e6)),
        "model-us",
        n,
    );
    p.layer(
        "ntt-gpu.inverse_us",
        median(&col(&|o| o.inv.device_s * 1e6)),
        "model-us",
        n,
    );
    p.layer("core.forward_ms", median(&col(&|o| o.cpu_fwd_ms)), "ms", n);
    p.layer("core.inverse_ms", median(&col(&|o| o.cpu_inv_ms)), "ms", n);
    if detail {
        p.layer("core.thread_speedup", thread_speedup(st), "ratio", 3);
        let names = [
            "ntt-gpu.radix2_us",
            "ntt-gpu.smem_us",
            "ntt-gpu.smem_ot_us",
            "ntt-gpu.hier_us",
        ];
        let us = trace::span("ntt-gpu.table2", 0, || {
            ntt_gpu::table2_us(st.log_n, st.np, PRIME_BITS)
        });
        for (name, us) in names.into_iter().zip(us) {
            p.layer(name, us, "model-us", 1);
        }
    }
    p
}

/// One-thread time over default-policy time for the same CPU pair,
/// medians of three pairs each.
fn thread_speedup(st: &mut State) -> f64 {
    let x = core::random_poly(&st.ring, &mut Rng::new(0, 3));
    let mut one = Engine::cpu(&st.ring, true);
    let time = |e: &mut Engine| {
        let v: Vec<f64> = (0..3)
            .map(|_| {
                let mut y = x.clone();
                let t0 = Instant::now();
                e.forward(&mut y);
                e.inverse(&mut y);
                ms_since(t0)
            })
            .collect();
        median(&v)
    };
    time(&mut one) / time(&mut st.cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_flipped_output_bit_fails_the_request() {
        crate::pin_for_tests();
        let mut st = setup_at(7, 8, 2);
        let clean = pass(&mut st, Budget::Minimal, false);
        assert_eq!(
            (clean.attempted, clean.failed),
            (1, 0),
            "{:?}",
            clean.failures
        );
        st.tamper = true;
        let bad = pass(&mut st, Budget::Minimal, false);
        assert_eq!((bad.attempted, bad.failed), (1, 1));
    }
}
