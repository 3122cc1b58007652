//! `boot`: the title workload. One steady-state CKKS bootstrap with
//! `BootParams::deep()` (21 × 50-bit primes) at N = 2^6 on the simulated
//! GPU and on the CPU engine, compared bit for bit. The slot matrix is
//! dense, so the output decrypts and its precision is checked. It
//! stresses HE composition, not kernels: at N = 64 every NTT stays on
//! radix-2 and per-launch overhead dominates modeled time, so key-switch,
//! launch-count and orchestration changes move it while NTT-kernel
//! changes bypass it.

use super::{note_rss, sim_call, timed, Budget, Pass, FIRST_OPS};
use crate::layers::core;
use crate::layers::gpu_sim::{Device, Window};
use crate::layers::he::{self, Ciphertext, He, RotationKeys};
use crate::layers::he_boot::{self, Boot};
use crate::layers::ntt_gpu;
use crate::report::{max_abs_err, median, precision_bits, Rng};
use crate::trace;
use std::time::Instant;

pub const LOG_N: u32 = 6;
/// Decode error a deep bootstrap stays under (the he-boot unit test's
/// bound); a larger one fails the request.
const MAX_ERR: f64 = 0.02;

pub struct State {
    cpu: He,
    sim: He,
    dev: Device,
    boot_cpu: Boot,
    boot_sim: Boot,
    inputs: Rng,
    /// Seconds to build both bootstrappers (rotation keys, DFT diagonals).
    pub build_s: f64,
    /// Forward-NTT kernel family the simulated backend routes this shape to.
    pub route: &'static str,
    pub pointwise: String,
    /// Flip one bit of the simulated output before the checks.
    pub tamper: bool,
}

pub fn setup(seed: u64) -> State {
    let params = he_boot::deep_params(LOG_N);
    let mut keys = Rng::new(seed, 10);
    // Key material is host-side math, identical on every backend: generate
    // it once and adopt it on the device.
    let cpu = He::new(params, core::cpu_backend(), keys.next_u64());
    let (backend, dev) = ntt_gpu::sim_backend();
    let sim = He::adopting(&cpu, backend);
    let t0 = Instant::now();
    let boot_cpu = Boot::new(&cpu, keys.next_u64());
    let boot_sim = Boot::adopting(&sim, &boot_cpu);
    let build_s = t0.elapsed().as_secs_f64();
    let mut st = State {
        cpu,
        sim,
        dev,
        boot_cpu,
        boot_sim,
        inputs: Rng::new(seed, 11),
        build_s,
        route: "none",
        pointwise: String::new(),
        tamper: false,
    };
    // Warm-up bootstrap on each substrate: uploads tables and fills the
    // EvalMod constant cache, so timed bootstraps are the steady state.
    let (values, enc) = message(&mut Rng::new(seed, 12));
    let (cs, cc) = (
        st.input(&st.sim, &values, enc),
        st.input(&st.cpu, &values, enc),
    );
    let m = st.dev.mark();
    st.boot_sim.bootstrap(&cs);
    st.route = st.dev.since(&m, true).route.unwrap_or("none");
    st.boot_cpu.bootstrap(&cc);
    st.pointwise = st.cpu.pointwise_verdicts();
    st
}

/// Coefficients in `[-0.8, 0.8)` and an encryption seed.
fn message(rng: &mut Rng) -> (Vec<f64>, u64) {
    let values = (0..1usize << LOG_N)
        .map(|_| rng.uniform(-0.8, 0.8))
        .collect();
    (values, rng.next_u64())
}

impl State {
    /// `values` encrypted at the bootstrap input scale and dropped to
    /// level 1, on `he`'s substrate.
    fn input(&self, he: &He, values: &[f64], enc: u64) -> Ciphertext {
        let ct = he.encrypt(values, Some(self.boot_sim.input_scale()), enc);
        he.drop_to_level(&ct, 1)
    }
}

struct Op {
    win: Window,
    sim_ms: f64,
    cpu_ms: f64,
    precision: f64,
}

fn one_op(st: &mut State, req: u64, detail: bool, p: &mut Pass) -> Op {
    let (values, enc) = message(&mut st.inputs);
    let ct_sim = trace::span("he.encrypt.sim", req, || st.input(&st.sim, &values, enc));
    let (out_sim, win, sim_ms) = sim_call(&st.dev, "he-boot.bootstrap.sim", req, detail, || {
        st.boot_sim.bootstrap(&ct_sim)
    });
    let ct_cpu = trace::span("he.encrypt.cpu", req, || st.input(&st.cpu, &values, enc));
    let (out_cpu, cpu_ms) = timed("he-boot.bootstrap.cpu", req, || {
        st.boot_cpu.bootstrap(&ct_cpu)
    });
    let dec = trace::span("he.decrypt.cpu", req, || st.cpu.decrypt(&out_cpu));

    let max_err = trace::span("bench.check", req, || {
        let mut sim_bits = he::bits(&out_sim);
        if st.tamper {
            sim_bits[0] ^= 1;
        }
        let max_err = max_abs_err(&values, &dec);
        let mut problems = Vec::new();
        if sim_bits != he::bits(&out_cpu) {
            problems.push("bootstrap outputs differ between Sim and Cpu".to_string());
        }
        if win.transfers != 0 || win.transfer_words != 0 {
            problems.push(format!(
                "steady-state bootstrap moved {} transfers ({} words)",
                win.transfers, win.transfer_words
            ));
        }
        if max_err.is_nan() || max_err >= MAX_ERR {
            problems.push(format!("decode error {max_err:.3e} over {MAX_ERR}"));
        }
        p.check(req, problems);
        max_err
    });
    Op {
        win,
        sim_ms,
        cpu_ms,
        precision: precision_bits(max_err),
    }
}

/// Bootstrap until the budget is spent. `detail` also reads the
/// launch-trace tails and times each HE op at these parameters.
pub fn pass(st: &mut State, budget: Budget, detail: bool) -> Pass {
    let mut p = Pass::default();
    let start = Instant::now();
    let mut ops: Vec<Op> = Vec::new();
    loop {
        let req = ops.len() as u64;
        let op = trace::span("boot.op", req, || one_op(st, req, detail, &mut p));
        p.win.add(&op.win);
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
        median(&col(&|o| o.win.device_s * 1e3)),
        "model-ms",
        n,
    );
    p.put("sim_wall_ms", median(&col(&|o| o.sim_ms)), "ms", n);
    p.put("cpu_wall_ms", median(&col(&|o| o.cpu_ms)), "ms", n);
    let first = &col(&|o| o.precision)[..n.min(FIRST_OPS)];
    p.put("precision_bits", median(first), "bits", first.len());

    p.layer("he-boot.build_s", st.build_s, "s", 1);
    p.layer(
        "he-boot.steady_transfers",
        p.win.transfers as f64 / n as f64,
        "count",
        n,
    );
    let key_entries = st.cpu.relin_entries() + he::rotation_entries(st.boot_cpu.rotation_keys());
    p.layer("he.key_entries", key_entries as f64, "count", 1);
    if detail {
        let (auto_per_rotation, decomp_per_switch) = he_ops(st, &mut p);
        let per_boot = |launches: u64, per: u64| launches as f64 / n as f64 / per.max(1) as f64;
        p.layer(
            "he.rotations",
            per_boot(p.win.automorphisms, auto_per_rotation),
            "count",
            n,
        );
        p.layer(
            "he.keyswitches",
            per_boot(p.win.decomposes, decomp_per_switch),
            "count",
            n,
        );
    }
    p
}

/// Inputs for one HE op on one substrate.
struct OpIn<'a> {
    he: &'a He,
    rtk: &'a RotationKeys,
    g: u64,
    top: usize,
    ct: Ciphertext,
    low: Ciphertext,
    raw: Ciphertext,
}

type HeOp = fn(&OpIn);

/// Each HE op at the bootstrap parameters, top level: median CPU time of
/// five runs and the modeled device time of one. Returns the
/// automorphism launches of one rotation and the decompose launches of
/// one key switch, which turn the bootstrap's launch counts into
/// rotation and key-switch counts.
fn he_ops(st: &State, p: &mut Pass) -> (u64, u64) {
    /// Span and metric names per substrate: (cpu span, cpu metric, sim
    /// span, device metric), then the op.
    type Names = (&'static str, &'static str, &'static str, &'static str);
    const OPS: [(Names, HeOp); 5] = [
        (
            (
                "he.rotate.cpu",
                "he.rotate.cpu_ms",
                "he.rotate.sim",
                "he.rotate.device_us",
            ),
            |i| {
                i.he.rotate(&i.ct, i.g, i.rtk);
            },
        ),
        (
            (
                "he.multiply.cpu",
                "he.multiply.cpu_ms",
                "he.multiply.sim",
                "he.multiply.device_us",
            ),
            |i| {
                i.he.multiply(&i.ct, &i.ct);
            },
        ),
        (
            (
                "he.rescale.cpu",
                "he.rescale.cpu_ms",
                "he.rescale.sim",
                "he.rescale.device_us",
            ),
            |i| {
                i.he.rescale(&mut i.raw.clone());
            },
        ),
        (
            (
                "he.mod_raise.cpu",
                "he.mod_raise.cpu_ms",
                "he.mod_raise.sim",
                "he.mod_raise.device_us",
            ),
            |i| {
                i.he.mod_raise(&i.low, i.top);
            },
        ),
        (
            (
                "he.multiply_plain.cpu",
                "he.multiply_plain.cpu_ms",
                "he.multiply_plain.sim",
                "he.multiply_plain.device_us",
            ),
            |i| {
                i.he.multiply_plain(&i.ct, &[0.5]);
            },
        ),
    ];
    fn inputs(st: &State, sim: bool) -> OpIn<'_> {
        let (h, b) = if sim {
            (&st.sim, &st.boot_sim)
        } else {
            (&st.cpu, &st.boot_cpu)
        };
        let top = h.top_level();
        let ct = h.encrypt(&[0.5, -0.25, 0.125], None, 1);
        let pt = h.prepared_plaintext(&[0.5], top);
        OpIn {
            he: h,
            rtk: b.rotation_keys(),
            g: he::galois_elements(b.rotation_keys())[0],
            top,
            low: h.drop_to_level(&ct, 1),
            raw: h.multiply_plain_raw(&ct, &pt),
            ct,
        }
    }
    let (cpu, sim) = (inputs(st, false), inputs(st, true));
    let mut per = (0, 0);
    for (i, ((cpu_span, cpu_ms, sim_span, device_us), op)) in OPS.into_iter().enumerate() {
        let ms: Vec<f64> = (0..5).map(|_| timed(cpu_span, 0, || op(&cpu)).1).collect();
        p.layer(cpu_ms, median(&ms), "ms", ms.len());
        let ((), w, _) = sim_call(&st.dev, sim_span, 0, true, || op(&sim));
        p.layer(device_us, w.device_s * 1e6, "model-us", 1);
        match i {
            0 => per.0 = w.automorphisms,
            1 => per.1 = w.decomposes,
            _ => {}
        }
    }
    per
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[ignore = "a deep bootstrap on the simulator takes minutes unoptimized; run with --release --ignored"]
    fn a_flipped_output_bit_fails_the_request() {
        crate::pin_for_tests();
        let mut st = setup(3);
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
