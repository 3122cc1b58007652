//! Closed- and open-loop multi-tenant load generation.
//!
//! Drives an [`HeServer`] the way production traffic
//! would: every tenant runs encrypt → eval → decrypt chains with
//! heavy-tailed value-vector sizes, and the report carries enough
//! counters for the `figures serve` section to plot throughput against
//! tail latency. Both modes verify decrypted chain outputs against the
//! closed-form expectation and classify every failed job by its
//! [`ServeError`], so a chaos run can assert "bit-correct or typed
//! error" from the client side alone.

use crate::metrics::FaultCounts;
use crate::request::{Request, Response, ServeError, SubmitError, TenantId};
use crate::server::{HeServer, Ticket};
use rand::{Rng, RngExt};
use std::sync::{mpsc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// How requests arrive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalMode {
    /// Each tenant keeps exactly one chain in flight (waits for every
    /// answer before the next submit) — latency under light load.
    Closed,
    /// One submitter paces encrypt submissions round-robin across
    /// tenants with a fixed inter-arrival gap — never waiting on
    /// answers — while a small pool of collector threads completes each
    /// chain (eval → decrypt → verify) as its encrypt answer lands.
    /// Arrival rate stays independent of service rate (a true open
    /// loop), yet every chain still runs end to end.
    Open {
        /// Pause between consecutive submits (zero floods the queue).
        gap: Duration,
    },
}

/// Load-generator knobs.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Simulated tenants.
    pub tenants: u32,
    /// Encrypt→eval→decrypt chains per tenant.
    pub chains_per_tenant: usize,
    /// Arrival discipline.
    pub mode: ArrivalMode,
    /// Cap on value-vector length (clamped to the ring degree). Actual
    /// lengths are heavy-tailed: length `max >> k` with probability
    /// `2^-(k+1)`, so most requests are small and a few are near-max.
    pub max_values: usize,
    /// Seeds the generator's value/length randomness.
    pub seed: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            tenants: 4,
            chains_per_tenant: 4,
            mode: ArrivalMode::Closed,
            max_values: 16,
            seed: 1,
        }
    }
}

/// What a load run did.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Jobs offered to the server (including refused ones).
    pub submitted: u64,
    /// Jobs answered successfully.
    pub completed: u64,
    /// Jobs answered with [`Response::Failed`] — split by class in
    /// [`LoadReport::faults`].
    pub failed: u64,
    /// Jobs refused with [`SubmitError::Backpressure`].
    pub rejected: u64,
    /// Decrypted chain results further than `1e-2` from the expected
    /// product (0 on a healthy run — and, by the fail-classified
    /// contract, 0 on a chaotic one too).
    pub mismatches: u64,
    /// Chains that ran end to end (encrypt through decrypt answered).
    pub chains_completed: u64,
    /// Chains cut short by a rejection or a failed job.
    pub chains_failed: u64,
    /// Client-observed failure classes across all failed jobs.
    pub faults: FaultCounts,
    /// Total retry attempts the server reported in
    /// [`ServeError::Fault`] answers.
    pub reported_retries: u64,
    /// Wall-clock time from first submit to last answer.
    pub wall: Duration,
}

impl LoadReport {
    /// Answered jobs per wall-clock second.
    pub fn throughput(&self) -> f64 {
        if self.wall.is_zero() {
            0.0
        } else {
            self.completed as f64 / self.wall.as_secs_f64()
        }
    }
}

/// Heavy-tailed length in `1..=max`: geometric over the trailing-zero
/// count of a uniform draw, so half the requests are `max`-halved once,
/// a quarter twice, and so on.
fn heavy_tail_len<R: Rng>(rng: &mut R, max: usize) -> usize {
    let shift = (rng.next_u64().trailing_zeros() as usize).min(max.ilog2() as usize);
    (max >> shift).max(1)
}

fn chain_values<R: Rng + RngExt>(rng: &mut R, max: usize) -> (Vec<f64>, Vec<f64>) {
    let len = heavy_tail_len(rng, max);
    let values = (0..len).map(|_| rng.random_range(-4.0..4.0)).collect();
    // Constant weight polynomial: under coefficient encoding eval is a
    // negacyclic poly product, and a degree-0 weight scales every value
    // — which keeps the expected chain output checkable in closed form.
    let weights = vec![rng.random_range(-2.0..2.0)];
    (values, weights)
}

/// Account one failed answer: counts, class, and server-reported
/// retries.
fn note_failure(r: &mut LoadReport, err: &ServeError) {
    r.failed += 1;
    if let Some(class) = err.fault_class() {
        r.faults.record(class);
    }
    if let ServeError::Fault { retries, .. } = err {
        r.reported_retries += u64::from(*retries);
    }
}

/// Wait on a ticket and account the answer: a success returns the
/// response, a classified failure (or a server teardown) returns `None`.
fn wait_ticket(ticket: Ticket, r: &mut LoadReport) -> Option<Response> {
    let done = ticket.wait()?;
    match done.response {
        Response::Failed(err) => {
            note_failure(r, &err);
            None
        }
        resp => {
            r.completed += 1;
            Some(resp)
        }
    }
}

/// Submit one job and wait for its answer, accounting refusals.
fn submit_and_wait(
    server: &HeServer,
    tenant: TenantId,
    req: Request,
    r: &mut LoadReport,
) -> Option<Response> {
    r.submitted += 1;
    match server.submit(tenant, req) {
        Ok(ticket) => wait_ticket(ticket, r),
        Err(SubmitError::Backpressure { .. }) => {
            r.rejected += 1;
            None
        }
        Err(_) => None,
    }
}

/// Complete a chain whose encrypt already answered: eval (if a level
/// remains to rescale into), decrypt, verify. `Some(())` means the chain
/// ran end to end (mismatches are counted separately).
fn finish_chain(
    server: &HeServer,
    tenant: TenantId,
    ct: he_lite::Ciphertext,
    values: Vec<f64>,
    weights: Vec<f64>,
    r: &mut LoadReport,
) -> Option<()> {
    let (ct, expect): (_, Vec<f64>) = if ct.level() >= 2 {
        let resp = submit_and_wait(
            server,
            tenant,
            Request::Eval {
                ct,
                weights: weights.clone(),
            },
            r,
        )?;
        let Response::Evaluated(ct) = resp else {
            return None;
        };
        (ct, values.iter().map(|v| v * weights[0]).collect())
    } else {
        (ct, values)
    };
    let Response::Decrypted(out) = submit_and_wait(server, tenant, Request::Decrypt { ct }, r)?
    else {
        return None;
    };
    for (got, want) in out.iter().zip(expect) {
        if (got - want).abs() > 1e-2 {
            r.mismatches += 1;
        }
    }
    Some(())
}

/// One encrypt → (eval if a level remains) → decrypt chain, fully
/// synchronous.
fn run_chain(
    server: &HeServer,
    values: Vec<f64>,
    weights: Vec<f64>,
    tenant: TenantId,
) -> LoadReport {
    let mut r = LoadReport::default();
    let outcome = (|| {
        let resp = submit_and_wait(
            server,
            tenant,
            Request::Encrypt {
                values: values.clone(),
            },
            &mut r,
        )?;
        let Response::Encrypted(ct) = resp else {
            return None;
        };
        finish_chain(server, tenant, ct, values, weights, &mut r)
    })();
    match outcome {
        Some(()) => r.chains_completed += 1,
        None => r.chains_failed += 1,
    }
    r
}

fn merge(into: &mut LoadReport, part: LoadReport) {
    into.submitted += part.submitted;
    into.completed += part.completed;
    into.failed += part.failed;
    into.rejected += part.rejected;
    into.mismatches += part.mismatches;
    into.chains_completed += part.chains_completed;
    into.chains_failed += part.chains_failed;
    into.faults.transient += part.faults.transient;
    into.faults.fatal += part.faults.fatal;
    into.faults.oom += part.faults.oom;
    into.faults.deadline += part.faults.deadline;
    into.reported_retries += part.reported_retries;
}

/// Run a load pattern against `server` and report what happened.
///
/// Closed mode spawns one thread per tenant. Open mode submits encrypts
/// from a single pacing thread and hands each ticket to a collector
/// pool that finishes the chain (eval → decrypt → verify) as answers
/// arrive, so submission never blocks on service.
pub fn run(server: &HeServer, cfg: &LoadConfig) -> LoadReport {
    let max = cfg.max_values.clamp(1, server.context().params().n());
    let start = Instant::now();
    let mut report = LoadReport::default();
    match cfg.mode {
        ArrivalMode::Closed => {
            let parts: Vec<LoadReport> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..cfg.tenants)
                    .map(|t| {
                        scope.spawn(move || {
                            let mut part = LoadReport::default();
                            let mut rng =
                                he_lite::sampling::seeded_rng(cfg.seed ^ (u64::from(t) << 17));
                            for _ in 0..cfg.chains_per_tenant {
                                let (values, weights) = chain_values(&mut rng, max);
                                merge(&mut part, run_chain(server, values, weights, TenantId(t)));
                            }
                            part
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("load tenant thread"))
                    .collect()
            });
            for part in parts {
                merge(&mut report, part);
            }
        }
        ArrivalMode::Open { gap } => {
            let total = cfg.tenants.max(1) as usize * cfg.chains_per_tenant;
            let mut rng = he_lite::sampling::seeded_rng(cfg.seed);
            let chains: Vec<(TenantId, Vec<f64>, Vec<f64>)> = (0..total)
                .map(|i| {
                    let tenant = TenantId((i % cfg.tenants.max(1) as usize) as u32);
                    let (values, weights) = chain_values(&mut rng, max);
                    (tenant, values, weights)
                })
                .collect();

            type ChainMsg = (TenantId, Ticket, Vec<f64>, Vec<f64>);
            let (tx, rx) = mpsc::channel::<ChainMsg>();
            let rx = Mutex::new(rx);
            let collectors = total.clamp(1, 4);
            let parts: Vec<LoadReport> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..collectors)
                    .map(|_| {
                        let rx = &rx;
                        scope.spawn(move || {
                            let mut part = LoadReport::default();
                            loop {
                                // Hold the receiver lock only for the
                                // recv, not across the chain.
                                let msg = rx.lock().unwrap_or_else(PoisonError::into_inner).recv();
                                let Ok((tenant, ticket, values, weights)) = msg else {
                                    break;
                                };
                                let done = match wait_ticket(ticket, &mut part) {
                                    Some(Response::Encrypted(ct)) => {
                                        finish_chain(server, tenant, ct, values, weights, &mut part)
                                    }
                                    _ => None,
                                };
                                match done {
                                    Some(()) => part.chains_completed += 1,
                                    None => part.chains_failed += 1,
                                }
                            }
                            part
                        })
                    })
                    .collect();

                let mut sub = LoadReport::default();
                for (tenant, values, weights) in chains {
                    sub.submitted += 1;
                    match server.submit(
                        tenant,
                        Request::Encrypt {
                            values: values.clone(),
                        },
                    ) {
                        Ok(ticket) => {
                            // The collectors only stop when the channel
                            // closes, so a send cannot fail.
                            let _ = tx.send((tenant, ticket, values, weights));
                        }
                        Err(SubmitError::Backpressure { .. }) => {
                            sub.rejected += 1;
                            sub.chains_failed += 1;
                        }
                        Err(_) => sub.chains_failed += 1,
                    }
                    if !gap.is_zero() {
                        std::thread::sleep(gap);
                    }
                }
                drop(tx);
                let mut parts: Vec<LoadReport> = handles
                    .into_iter()
                    .map(|h| h.join().expect("load collector thread"))
                    .collect();
                parts.push(sub);
                parts
            });
            for part in parts {
                merge(&mut report, part);
            }
        }
    }
    report.wall = start.elapsed();
    report
}
