//! `serve`: open-loop traffic into `HeServer` on the simulated GPU at
//! N = 2^10 with 3 levels. Four tenants send a fixed mix of Encrypt
//! (heavy-tailed value lengths), Eval and Decrypt requests; Eval and
//! Decrypt inputs are ciphertexts prepared during setup. It exercises the
//! request path (fair queue, batcher, host-staged flat calls and their
//! transfers) rather than kernels or key switching: Eval is a plaintext
//! multiply, so key-switch changes bypass it.
//!
//! A pass runs four phases: one request at a time on an idle Sim server
//! and on an idle Cpu server (per-request host cost on each substrate),
//! a paced phase at a fixed offered rate near half of capacity (latency
//! from each request's due time), and a burst kept within the queue
//! bounds (drain throughput). Every answer is then checked against its
//! known plaintext; ciphertext answers are decrypted through the server
//! that produced them.

use super::{ms_since, Budget, Pass};
use crate::layers::core;
use crate::layers::gpu_sim::{Device, Window};
use crate::layers::he::{Ciphertext, Params};
use crate::layers::he_serve::{Answer, Counters, Pending, Req, Server};
use crate::layers::ntt_gpu;
use crate::report::{max_abs_err, median, precision_bits, quantile, Rng};
use crate::trace;
use std::sync::mpsc;
use std::time::{Duration, Instant};

const TENANTS: u32 = 4;
/// Paced offered rate, requests per second: about 40% of the Sim
/// server's drain rate on a 2-core host.
const RATE: f64 = 30.0;
/// Share of the time budget the paced phase gets.
const PACED_SHARE: f64 = 0.7;
/// Longest Encrypt value vector; lengths are heavy-tailed below it.
const MAX_VALUES: usize = 256;
/// Eval/Decrypt input ciphertexts prepared per server.
const POOL: usize = 32;
/// Requests in flight per tenant when draining a batch of submissions,
/// inside the server's 64-deep tenant queues.
const PER_TENANT: usize = 40;
/// Rounds of a timed pass.
const ROUNDS: usize = 5;
/// Requests per burst: enough to fill dispatch groups.
const BURST: usize = 80;
/// Largest decode error an answer may carry (the load generator's bound).
const MAX_ERR: f64 = 1e-2;

fn params() -> Params {
    Params {
        log_n: 10,
        prime_bits: 50,
        levels: 3,
        scale_bits: 40,
        gadget_bits: 10,
        error_eta: 4,
    }
}

/// A ciphertext of known values.
struct Prepared {
    ct: Ciphertext,
    values: Vec<f64>,
}

pub struct State {
    sim: Server,
    dev: Device,
    cpu: Server,
    sim_pool: Vec<Prepared>,
    cpu_pool: Vec<Prepared>,
    traffic: Rng,
    /// Draws the paced phase's inter-arrival gaps.
    arrivals: Rng,
    /// Forward-NTT kernel family the simulated backend routes this shape to.
    pub route: &'static str,
    pub pointwise: String,
    /// Flip one bit of the first checked answer (the benchmark's own test
    /// that its checks catch a wrong answer).
    pub tamper: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Encrypt,
    Eval,
    Decrypt,
}

/// One generated request: its tenant and kind, the Encrypt values or the
/// pool entry and weight it uses.
struct Gen {
    tenant: u32,
    kind: Kind,
    values: Vec<f64>,
    pool: usize,
    weight: f64,
}

/// Heavy-tailed length in `1..=max`: `max` halved `k` times with
/// probability `2^-(k+1)`.
fn heavy_tail_len(rng: &mut Rng, max: usize) -> usize {
    let shift = (rng.next_u64().trailing_zeros() as usize).min(max.ilog2() as usize);
    (max >> shift).max(1)
}

fn values(rng: &mut Rng) -> Vec<f64> {
    let len = heavy_tail_len(rng, MAX_VALUES);
    (0..len).map(|_| rng.uniform(-4.0, 4.0)).collect()
}

/// The request mix: Encrypt, Eval, Encrypt, Decrypt, repeated. The kinds
/// follow a fixed cycle and only their contents come from the seed:
/// Decrypt costs about three times Encrypt on this stack, so a drawn
/// order would let seeds differ in how often Decrypts queue behind each
/// other, and move the tail and the burst throughput with them.
const MIX: [Kind; 4] = [Kind::Encrypt, Kind::Eval, Kind::Encrypt, Kind::Decrypt];

/// One request of `kind` for a seeded tenant, values, pool entry and
/// weight.
fn gen(rng: &mut Rng, kind: Kind) -> Gen {
    Gen {
        tenant: rng.below(u64::from(TENANTS)) as u32,
        kind,
        values: if kind == Kind::Encrypt {
            values(rng)
        } else {
            Vec::new()
        },
        pool: rng.below(POOL as u64) as usize,
        weight: rng.uniform(-2.0, 2.0),
    }
}

/// `n` requests in the fixed mix.
fn gens(rng: &mut Rng, n: usize) -> Vec<Gen> {
    MIX.iter().cycle().take(n).map(|&k| gen(rng, k)).collect()
}

/// The request to send and the values its answer must decrypt to.
fn build(g: &Gen, pool: &[Prepared]) -> (Req, Vec<f64>) {
    let p = &pool[g.pool];
    match g.kind {
        Kind::Encrypt => (Req::Encrypt(g.values.clone()), g.values.clone()),
        Kind::Eval => (
            Req::Eval(p.ct.clone(), g.weight),
            p.values.iter().map(|v| v * g.weight).collect(),
        ),
        Kind::Decrypt => (Req::Decrypt(p.ct.clone()), p.values.clone()),
    }
}

/// `gens` as requests numbered from `first_id`, with expected answers.
fn requests(gens: &[Gen], pool: &[Prepared], first_id: u64) -> Vec<(u64, Req, Vec<f64>)> {
    gens.iter()
        .zip(first_id..)
        .map(|(g, id)| {
            let (r, expect) = build(g, pool);
            (id, r, expect)
        })
        .collect()
}

/// An answered request.
struct Done {
    req: u64,
    expect: Vec<f64>,
    answer: Answer,
    /// Server-stamped submit-to-answer time.
    server_ms: f64,
}

fn wait(req: u64, expect: Vec<f64>, pending: Result<Pending, String>) -> Done {
    let (answer, lat) = trace::span("he-serve.wait", req, || match pending {
        Ok(p) => p.wait(),
        Err(e) => (Answer::Failed(format!("refused: {e}")), Duration::ZERO),
    });
    Done {
        req,
        expect,
        answer,
        server_ms: lat.as_secs_f64() * 1e3,
    }
}

fn submit(server: &Server, req: u64, tenant: u32, r: Req) -> Result<Pending, String> {
    trace::span("he-serve.submit", req, || server.submit(tenant, r))
}

/// Submit `reqs` round-robin over tenants, at most [`PER_TENANT`] in
/// flight per tenant, and wait for every answer in order.
fn drain(server: &Server, reqs: Vec<(u64, Req, Vec<f64>)>) -> Vec<Done> {
    let mut done = Vec::with_capacity(reqs.len());
    let mut it = reqs.into_iter().peekable();
    while it.peek().is_some() {
        let chunk: Vec<_> = it
            .by_ref()
            .take(PER_TENANT * TENANTS as usize)
            .enumerate()
            .map(|(i, (id, r, expect))| (id, expect, submit(server, id, i as u32 % TENANTS, r)))
            .collect();
        done.extend(chunk.into_iter().map(|(id, expect, p)| wait(id, expect, p)));
    }
    done
}

/// Encrypt [`POOL`] vectors through `server`.
fn prepare(server: &Server, rng: &mut Rng) -> Vec<Prepared> {
    let vals: Vec<Vec<f64>> = (0..POOL).map(|_| values(rng)).collect();
    let reqs = vals
        .iter()
        .enumerate()
        .map(|(i, v)| (i as u64, Req::Encrypt(v.clone()), v.clone()))
        .collect();
    drain(server, reqs)
        .into_iter()
        .zip(vals)
        .map(|(d, values)| match d.answer {
            Answer::Ct(ct) => Prepared { ct, values },
            _ => panic!("setup encryption failed"),
        })
        .collect()
}

pub fn setup(seed: u64) -> State {
    let mut keys = Rng::new(seed, 20);
    let (backend, dev) = ntt_gpu::sim_backend();
    let sim = Server::start(params(), backend, keys.next_u64());
    let cpu = Server::start(params(), core::cpu_backend(), keys.next_u64());
    let m = dev.mark();
    let sim_pool = prepare(&sim, &mut Rng::new(seed, 21));
    let route = dev.since(&m, true).route.unwrap_or("none");
    let cpu_pool = prepare(&cpu, &mut Rng::new(seed, 22));
    // Warm-up: a dozen requests of the mix on both servers.
    for (server, pool) in [(&sim, &sim_pool), (&cpu, &cpu_pool)] {
        drain(
            server,
            requests(&gens(&mut Rng::new(seed, 23), 12), pool, 0),
        );
    }
    State {
        pointwise: sim.pointwise_verdicts(),
        sim,
        dev,
        cpu,
        sim_pool,
        cpu_pool,
        traffic: Rng::new(seed, 24),
        arrivals: Rng::new(seed, 25),
        route,
        tamper: false,
    }
}

/// Rounds of a pass and requests per phase of each round.
struct Sizes {
    rounds: usize,
    idle: usize,
    paced: usize,
    burst: usize,
}

fn sizes(budget: Budget) -> Sizes {
    match budget {
        Budget::Seconds(s) => Sizes {
            rounds: ROUNDS,
            idle: 16,
            paced: (RATE * PACED_SHARE * s / ROUNDS as f64).round().max(1.0) as usize,
            burst: BURST,
        },
        Budget::Minimal => Sizes {
            rounds: 1,
            idle: 8,
            paced: 50,
            burst: 24,
        },
    }
}

/// An idle-server request: kind, client wall ms, modeled device ms and
/// launches.
struct Idle {
    kind: Kind,
    wall_ms: f64,
    device_ms: f64,
    launches: u64,
}

/// One request at a time on an idle server.
fn idle_phase(
    server: &Server,
    dev: Option<&Device>,
    pool: &[Prepared],
    gens: Vec<Gen>,
    first_id: u64,
    done: &mut Vec<Done>,
) -> Vec<Idle> {
    gens.into_iter()
        .zip(first_id..)
        .map(|(g, id)| {
            let (r, expect) = build(&g, pool);
            let m = dev.map(Device::mark);
            let t0 = Instant::now();
            let d = wait(id, expect, submit(server, id, g.tenant, r));
            let wall_ms = ms_since(t0);
            let w = match (dev, m) {
                (Some(dev), Some(m)) => dev.since(&m, false),
                _ => Window::default(),
            };
            done.push(d);
            Idle {
                kind: g.kind,
                wall_ms,
                device_ms: w.device_s * 1e3,
                launches: w.launches,
            }
        })
        .collect()
}

/// Paced open-loop phase on the Sim server: requests are due at jittered
/// gaps averaging `1/RATE`; a collector thread waits for the answers.
/// Returns (due-to-answer ms, generator lateness ms) per request.
fn paced_phase(
    st: &mut State,
    gens: Vec<Gen>,
    first_id: u64,
    done: &mut Vec<Done>,
) -> Vec<(f64, f64)> {
    let (tx, rx) = mpsc::channel::<(u64, Vec<f64>, f64, Result<Pending, String>)>();
    std::thread::scope(|s| {
        let collector = s.spawn(move || {
            trace::span("serve.collect", 0, || {
                rx.into_iter()
                    .map(|(id, expect, late_ms, p)| (wait(id, expect, p), late_ms))
                    .collect::<Vec<_>>()
            })
        });
        let mut due = Instant::now() + Duration::from_millis(5);
        for (i, g) in gens.into_iter().enumerate() {
            due += Duration::from_secs_f64(st.arrivals.uniform(0.5, 1.5) / RATE);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let id = first_id + i as u64;
            let (r, expect) = build(&g, &st.sim_pool);
            let late_ms = Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3;
            let p = submit(&st.sim, id, g.tenant, r);
            tx.send((id, expect, late_ms, p))
                .expect("collector runs until the channel closes");
        }
        drop(tx);
        let answered = collector.join().expect("collector thread");
        answered
            .into_iter()
            .map(|(d, late_ms)| {
                let lat = (late_ms + d.server_ms, late_ms);
                done.push(d);
                lat
            })
            .collect()
    })
}

/// Check every answer against its known plaintext, decrypting ciphertext
/// answers through `server`. Returns the largest decode error.
fn check(server: &Server, done: Vec<Done>, tamper: &mut bool, p: &mut Pass) -> f64 {
    let (cts, mut opened): (Vec<Done>, Vec<Done>) = done
        .into_iter()
        .partition(|d| matches!(d.answer, Answer::Ct(_)));
    let reqs = cts
        .into_iter()
        .map(|d| match d.answer {
            Answer::Ct(ct) => (d.req, Req::Decrypt(ct), d.expect),
            _ => unreachable!("partitioned on ciphertext answers"),
        })
        .collect();
    opened.extend(drain(server, reqs));
    let mut max_err = 0.0f64;
    for d in opened {
        let problem = match d.answer {
            Answer::Values(mut got) => {
                if std::mem::take(tamper) {
                    got[0] = f64::from_bits(got[0].to_bits() ^ (1 << 63));
                }
                let err = max_abs_err(&d.expect, &got);
                max_err = max_err.max(err);
                (err.is_nan() || err > MAX_ERR)
                    .then(|| format!("decode error {err:.3e} over {MAX_ERR}"))
            }
            Answer::Failed(e) => Some(e),
            Answer::Ct(_) => Some("a Decrypt answered with a ciphertext".to_string()),
        };
        p.check(d.req, problem.into_iter().collect());
    }
    max_err
}

/// Median wall time of each kind, weighted by the kind's share of the
/// mix: the host cost of an average request, steady across seeds.
fn mix_weighted(idle: &[Idle]) -> f64 {
    [
        (Kind::Encrypt, 0.5),
        (Kind::Eval, 0.25),
        (Kind::Decrypt, 0.25),
    ]
    .into_iter()
    .map(|(k, share)| {
        let v: Vec<f64> = idle
            .iter()
            .filter(|i| i.kind == k)
            .map(|i| i.wall_ms)
            .collect();
        share * median(&v)
    })
    .sum()
}

fn batch_jobs(c: &Counters) -> f64 {
    c.batched_jobs as f64 / c.batches.max(1) as f64
}

/// Run the phases in rounds spread over the budget, then check every
/// answer. Each round runs idle Sim, idle Cpu, paced and burst traffic in
/// turn, so a few noisy seconds on the host touch every metric a little
/// rather than one metric a lot: idle and paced samples are pooled over
/// the rounds, burst throughput is the median round's.
pub fn pass(st: &mut State, budget: Budget, detail: bool) -> Pass {
    let mut p = Pass::default();
    let sz = sizes(budget);
    let c_start = st.sim.counters();
    let (mut sim_done, mut cpu_done) = (Vec::new(), Vec::new());
    let (mut sim_idle, mut cpu_idle, mut paced) = (Vec::new(), Vec::new(), Vec::new());
    let (mut win, mut c_paced, mut c_burst) =
        (Window::default(), Counters::default(), Counters::default());
    let mut burst_rps = Vec::new();
    let mut id = 0u64;
    for _ in 0..sz.rounds {
        let g = gens(&mut st.traffic, sz.idle);
        sim_idle.extend(trace::span("serve.idle.sim", 0, || {
            idle_phase(&st.sim, Some(&st.dev), &st.sim_pool, g, id, &mut sim_done)
        }));
        id += sz.idle as u64;
        let g = gens(&mut st.traffic, sz.idle);
        cpu_idle.extend(trace::span("serve.idle.cpu", 0, || {
            idle_phase(&st.cpu, None, &st.cpu_pool, g, id, &mut cpu_done)
        }));
        id += sz.idle as u64;

        let g = gens(&mut st.traffic, sz.paced);
        let (m, c0) = (st.dev.mark(), st.sim.counters());
        paced.extend(trace::span("serve.paced", 0, || {
            paced_phase(st, g, id, &mut sim_done)
        }));
        win.add(&st.dev.since(&m, detail));
        c_paced.add(&st.sim.counters().since(&c0));
        id += sz.paced as u64;

        let burst = requests(&gens(&mut st.traffic, sz.burst), &st.sim_pool, id);
        id += sz.burst as u64;
        let (c1, t0) = (st.sim.counters(), Instant::now());
        sim_done.extend(trace::span("serve.burst", 0, || drain(&st.sim, burst)));
        burst_rps.push(sz.burst as f64 / t0.elapsed().as_secs_f64());
        c_burst.add(&st.sim.counters().since(&c1));
    }

    let mut tamper = st.tamper;
    let max_err = trace::span("serve.check", 0, || {
        let sim = check(&st.sim, sim_done, &mut tamper, &mut p);
        sim.max(check(&st.cpu, cpu_done, &mut tamper, &mut p))
    });
    let c_all = st.sim.counters().since(&c_start);

    let n = paced.len();
    let latency: Vec<f64> = paced.iter().map(|l| l.0).collect();
    let lateness: Vec<f64> = paced.iter().map(|l| l.1).collect();
    let server_ms: Vec<f64> = latency.iter().zip(&lateness).map(|(l, t)| l - t).collect();
    let walls = |v: &[Idle]| v.iter().map(|i| i.wall_ms).collect::<Vec<f64>>();
    p.ops = n as u64;
    p.win = win;
    p.host_s_per_launch = walls(&sim_idle).iter().sum::<f64>()
        / 1e3
        / sim_idle.iter().map(|i| i.launches).sum::<u64>().max(1) as f64;
    p.put("device_ms", win.device_s * 1e3 / n as f64, "model-ms", n);
    p.put("sim_wall_ms", mix_weighted(&sim_idle), "ms", sim_idle.len());
    p.put("cpu_wall_ms", mix_weighted(&cpu_idle), "ms", cpu_idle.len());
    p.put("p50_ms", median(&latency), "ms", n);
    p.put("p99_ms", quantile(&latency, 0.99), "ms", n);
    p.put("throughput_rps", median(&burst_rps), "1/s", burst_rps.len());
    p.put(
        "precision_bits",
        precision_bits(max_err),
        "bits",
        p.attempted as usize,
    );

    p.layer("he-serve.server_p50_ms", median(&server_ms), "ms", n);
    p.layer(
        "he-serve.server_p99_ms",
        quantile(&server_ms, 0.99),
        "ms",
        n,
    );
    p.layer(
        "he-serve.lateness_p99_ms",
        quantile(&lateness, 0.99),
        "ms",
        n,
    );
    p.layer(
        "he-serve.batch_jobs_paced",
        batch_jobs(&c_paced),
        "jobs",
        c_paced.batches as usize,
    );
    p.layer(
        "he-serve.batch_jobs_burst",
        batch_jobs(&c_burst),
        "jobs",
        c_burst.batches as usize,
    );
    p.layer(
        "he-serve.words_per_req",
        win.transfer_words as f64 / n as f64,
        "words",
        n,
    );
    for (kind, host, device) in [
        (
            Kind::Encrypt,
            "he-serve.encrypt_ms",
            "he-serve.encrypt_device_ms",
        ),
        (Kind::Eval, "he-serve.eval_ms", "he-serve.eval_device_ms"),
        (
            Kind::Decrypt,
            "he-serve.decrypt_ms",
            "he-serve.decrypt_device_ms",
        ),
    ] {
        let of: Vec<&Idle> = sim_idle.iter().filter(|i| i.kind == kind).collect();
        p.layer(
            host,
            median(&of.iter().map(|i| i.wall_ms).collect::<Vec<_>>()),
            "ms",
            of.len(),
        );
        p.layer(
            device,
            median(&of.iter().map(|i| i.device_ms).collect::<Vec<_>>()),
            "model-ms",
            of.len(),
        );
    }
    p.layer("he-serve.retries", c_all.retries as f64, "count", 1);
    p.layer("he-serve.rejected", c_all.rejected as f64, "count", 1);
    p.layer(
        "he-serve.degraded_jobs",
        c_all.degraded_jobs as f64,
        "count",
        1,
    );
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_flipped_answer_bit_fails_the_request() {
        crate::pin_for_tests();
        let mut st = setup(5);
        let clean = pass(&mut st, Budget::Minimal, false);
        assert!(clean.attempted > 0);
        assert_eq!(clean.failed, 0, "{:?}", clean.failures);
        st.tamper = true;
        let bad = pass(&mut st, Budget::Minimal, false);
        assert_eq!(bad.failed, 1);
    }
}
