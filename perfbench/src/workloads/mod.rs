//! The three workloads. Each has a `setup` (everything before the first
//! timed op) and a `pass` that measures for a time budget, checks every
//! output, and returns its end-to-end metrics, its layer metrics and the
//! device counters of its ops.

pub mod boot;
pub mod ntt;
pub mod serve;

use crate::layers::gpu_sim::{Device, Window};
use crate::report::Metric;
use std::collections::BTreeMap;
use std::time::Instant;

/// Ops a timed ntt or boot pass runs at least, however slow the host.
/// Boot's `precision_bits` is the median of the first ones and
/// `peak_rss_mb` is read after them, so for a fixed seed neither depends
/// on how many ops the host finished. (The simulator keeps a record of
/// every launch, so the process grows with each op: about 3.4 MB per
/// bootstrap.)
pub const FIRST_OPS: usize = 5;

/// How long a pass runs: for `seconds`, or one minimal round (used by the
/// traced run to read this workload's layer metrics while another
/// workload is under test).
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    Seconds(f64),
    Minimal,
}

impl Budget {
    /// Whether a pass that started at `start` and has finished `done`
    /// requests stops after its current one.
    pub fn spent(self, start: Instant, done: usize) -> bool {
        match self {
            Budget::Minimal => true,
            Budget::Seconds(s) => done >= FIRST_OPS && start.elapsed().as_secs_f64() >= s,
        }
    }
}

/// What a pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// The run-level metrics: `device_ms`, `precision_bits` and the
    /// host-clock times (`crate::HOST_CLOCK`), plus serve's latency and
    /// throughput.
    pub e2e: BTreeMap<&'static str, Metric>,
    /// This workload's own layer metrics.
    pub layer: BTreeMap<&'static str, Metric>,
    /// Ops the device window covers (pairs, bootstraps, paced requests).
    pub ops: u64,
    /// Device counters summed over those ops.
    pub win: Window,
    /// Host seconds the simulator spent per launch, on ops run alone.
    pub host_s_per_launch: f64,
    /// Peak resident set after the first `FIRST_OPS` ops (ntt and boot).
    pub peak_rss_mb: Option<f64>,
    /// Outputs checked and how many were wrong.
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Pass {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.e2e.insert(
            name,
            Metric {
                value,
                unit,
                samples,
            },
        );
    }

    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.layer.insert(
            name,
            Metric {
                value,
                unit,
                samples,
            },
        );
    }

    /// Count one request; failed unless `problems` is empty.
    pub fn check(&mut self, req: u64, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            if self.failures.len() < 10 {
                self.failures
                    .push(format!("request {req}: {}", problems.join("; ")));
            }
        }
    }
}

/// Read the peak resident set once `done` ops have finished, if that is
/// `FIRST_OPS`.
pub fn note_rss(p: &mut Pass, done: usize) {
    if done == FIRST_OPS {
        p.peak_rss_mb = Some(crate::report::peak_rss_mb());
    }
}

/// Milliseconds since `t0`.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Run `f`, returning its result and wall-clock milliseconds, inside a
/// span.
pub fn timed<R>(name: &'static str, req: u64, f: impl FnOnce() -> R) -> (R, f64) {
    crate::trace::span(name, req, || {
        let t0 = Instant::now();
        let out = f();
        (out, ms_since(t0))
    })
}

/// Run `f` on the simulated device `dev` inside a span: its result, the
/// device counter deltas (attached to the span) and the host
/// milliseconds it took.
pub fn sim_call<R>(
    dev: &Device,
    name: &'static str,
    req: u64,
    detail: bool,
    f: impl FnOnce() -> R,
) -> (R, Window, f64) {
    crate::trace::span(name, req, || {
        let m = dev.mark();
        let t0 = Instant::now();
        let out = f();
        let ms = ms_since(t0);
        let w = dev.since(&m, detail);
        crate::trace::annotate(&w.counters());
        (out, w, ms)
    })
}
