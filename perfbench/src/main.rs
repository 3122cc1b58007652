//! `perfbench`: one command that runs one workload of the ntt-warp stack
//! from a seed, checks its outputs, and prints every end-to-end metric
//! (or, with `--trace 1`, every per-layer metric) by name with its unit
//! and sample count, ending with one JSON line.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload ntt|boot|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! See `perfbench/README.md` for the workloads, the metrics and how to
//! compare two commits.

mod layers;
mod report;
mod trace;
mod workloads;

use layers::gpu_sim::class_coverage;
use report::{median, peak_rss_mb, Report};
use std::path::PathBuf;
use std::time::Instant;
use workloads::{boot, ntt, serve, Budget, Pass};

/// End-to-end metrics: the JSON line of an untraced run, in this order.
const E2E: [&str; 4] = ["device_ms", "precision_bits", "setup_s", "peak_rss_mb"];

/// Host-clock time per op on each substrate. Untraced runs print them
/// without putting them in the JSON line, because on a shared host they
/// drift by more than any regression bound allows between runs a minute
/// apart (see README); traced runs report them as layer metrics.
const HOST_CLOCK: [&str; 2] = ["sim_wall_ms", "cpu_wall_ms"];

/// Per-layer metrics, printed by traced runs in this order.
const PER_LAYER: [&str; 65] = [
    "sim_wall_ms",
    "cpu_wall_ms",
    "math.shoup_ns",
    "math.barrett_ns",
    "math.montgomery_ns",
    "core.forward_ms",
    "core.inverse_ms",
    "core.thread_speedup",
    "gpu-sim.launches",
    "gpu-sim.dram_mb",
    "gpu-sim.dram_util",
    "gpu-sim.transfers",
    "gpu-sim.transfer_words",
    "gpu-sim.transfer_ms",
    "gpu-sim.overlap",
    "gpu-sim.host_us_per_launch",
    "ntt-gpu.forward_us",
    "ntt-gpu.inverse_us",
    "ntt-gpu.radix2_us",
    "ntt-gpu.smem_us",
    "ntt-gpu.smem_ot_us",
    "ntt-gpu.hier_us",
    "ntt-gpu.ntt_ms",
    "ntt-gpu.ntt_launches",
    "ntt-gpu.keyswitch_ms",
    "ntt-gpu.keyswitch_launches",
    "ntt-gpu.elementwise_ms",
    "ntt-gpu.elementwise_launches",
    "he.rotate.cpu_ms",
    "he.rotate.device_us",
    "he.multiply.cpu_ms",
    "he.multiply.device_us",
    "he.rescale.cpu_ms",
    "he.rescale.device_us",
    "he.mod_raise.cpu_ms",
    "he.mod_raise.device_us",
    "he.multiply_plain.cpu_ms",
    "he.multiply_plain.device_us",
    "he.rotations",
    "he.keyswitches",
    "he.key_entries",
    "he-boot.steady_transfers",
    "he-boot.build_s",
    "he-serve.server_p50_ms",
    "he-serve.server_p99_ms",
    "he-serve.lateness_p99_ms",
    "he-serve.batch_jobs_paced",
    "he-serve.batch_jobs_burst",
    "he-serve.words_per_req",
    "he-serve.encrypt_ms",
    "he-serve.eval_ms",
    "he-serve.decrypt_ms",
    "he-serve.encrypt_device_ms",
    "he-serve.eval_device_ms",
    "he-serve.decrypt_device_ms",
    "he-serve.retries",
    "he-serve.rejected",
    "he-serve.degraded_jobs",
    "trace.class_coverage",
    "trace.self_sum_ratio",
    "trace.spans",
    "trace.overhead.device_ms",
    "trace.overhead.sim_wall_ms",
    "trace.overhead.cpu_wall_ms",
    "trace.overhead.precision_bits",
];

/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Everything a run writes lives here, inside the checkout.
const OUT_DIR: &str = ".bench_out";
/// Plan-time verdicts every run starts from (see `pin_environment`).
const CALIBRATION: &str = include_str!("../calibration.txt");
/// Modular multiplications per timed chain of the `math` probe.
const MODMULS: u64 = 1 << 21;
/// The share of modeled device time the kernel-class split (plus
/// transfers) must explain.
const MIN_COVERAGE: f64 = 0.95;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Ntt,
    Boot,
    Serve,
}

const WORKLOADS: [Workload; 3] = [Workload::Ntt, Workload::Boot, Workload::Serve];

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Ntt => "ntt",
            Workload::Boot => "boot",
            Workload::Serve => "serve",
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload ntt|boot|serve --seed N --seconds S --trace 0|1";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: traced.ok_or("missing --trace")?,
    })
}

/// Clear every `NTT_WARP_*` knob (fault plans, forced forward route and
/// split, forced pointwise reduction, deadline, retry, backoff, thread
/// count) and point the calibration file at a copy of the committed
/// verdicts, so no run measures a plan-time timing race and both sides of
/// a comparison plan identically. Runs before any other thread exists.
fn pin_environment() -> std::io::Result<PathBuf> {
    let knobs: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("NTT_WARP_"))
        .collect();
    for k in knobs {
        std::env::remove_var(k);
    }
    let dir = std::env::current_dir()?.join(OUT_DIR);
    std::fs::create_dir_all(&dir)?;
    let calib = dir.join("calibration.txt");
    std::fs::write(&calib, CALIBRATION)?;
    std::env::set_var("NTT_WARP_CALIB_FILE", &calib);
    Ok(dir)
}

/// A workload's entry points.
struct Spec<S> {
    workload: Workload,
    setup: fn(u64) -> S,
    pass: fn(&mut S, Budget, bool) -> Pass,
    /// Forward route and pointwise verdicts of a set-up state.
    pinned: fn(&S) -> (&'static str, String),
}

const NTT: Spec<ntt::State> = Spec {
    workload: Workload::Ntt,
    setup: ntt::setup,
    pass: ntt::pass,
    pinned: |s| (s.route, s.pointwise.clone()),
};
const BOOT: Spec<boot::State> = Spec {
    workload: Workload::Boot,
    setup: boot::setup,
    pass: boot::pass,
    pinned: |s| (s.route, s.pointwise.clone()),
};
const SERVE: Spec<serve::State> = Spec {
    workload: Workload::Serve,
    setup: serve::setup,
    pass: serve::pass,
    pinned: |s| (s.route, s.pointwise.clone()),
};

/// The tally of a pass's checks.
fn tally(rep: &mut Report, p: &Pass) {
    rep.attempted += p.attempted;
    rep.failed += p.failed;
    rep.notes
        .extend(p.failures.iter().map(|f| format!("FAILED: {f}")));
}

/// Set up `SETUPS` times (each dropped before the next), then measure
/// the workload: untraced for the whole time, or, traced, untraced for
/// half and traced for half.
fn measure<S>(spec: &Spec<S>, args: &Args, out_dir: &std::path::Path) -> Report {
    let mut rep = Report::default();
    let mut setup_s = Vec::new();
    let mut state = None;
    for _ in 0..SETUPS {
        drop(state.take());
        let t0 = Instant::now();
        state = Some((spec.setup)(args.seed));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut st = state.expect("SETUPS > 0");
    let (route, pointwise) = (spec.pinned)(&st);
    rep.info("forward_route", route);
    rep.info("pointwise", pointwise);

    if !args.trace {
        let p = (spec.pass)(&mut st, Budget::Seconds(args.seconds), false);
        tally(&mut rep, &p);
        for (name, m) in p.e2e {
            rep.metrics.insert(name.to_string(), m);
        }
        rep.set("setup_s", median(&setup_s), "s", SETUPS);
        let rss = p.peak_rss_mb.unwrap_or_else(peak_rss_mb);
        rep.set("peak_rss_mb", rss, "MB", 1);
        return rep;
    }

    let half = Budget::Seconds(args.seconds / 2.0);
    let base = (spec.pass)(&mut st, half, false);
    tally(&mut rep, &base);
    for name in HOST_CLOCK {
        rep.metrics.insert(name.to_string(), base.e2e[name].clone());
    }
    trace::enable(true);
    let traced = trace::span("bench.pass", 0, || (spec.pass)(&mut st, half, true));
    trace::enable(false);
    tally(&mut rep, &traced);
    layer_report(&mut rep, &traced, &base);
    span_report(&mut rep, spec.workload, args.seed, out_dir);
    for (name, m) in traced.layer {
        rep.metrics.insert(name.to_string(), m);
    }
    rep
}

/// Device counters per op of the traced pass, the kernel-class split and
/// its coverage check, and the tracing overhead on each end-to-end
/// metric.
fn layer_report(rep: &mut Report, t: &Pass, base: &Pass) {
    let n = t.ops as usize;
    let per_op = |v: f64| v / n.max(1) as f64;
    let w = &t.win;
    let kernel_s: f64 = w.class_s.iter().sum();
    rep.set("gpu-sim.launches", per_op(w.launches as f64), "count", n);
    rep.set(
        "gpu-sim.dram_mb",
        per_op(w.dram_bytes as f64 / 1e6),
        "MB",
        n,
    );
    rep.set(
        "gpu-sim.dram_util",
        w.dram_bytes as f64 / kernel_s.max(f64::MIN_POSITIVE) / layers::gpu_sim::peak_dram_bw(),
        "ratio",
        n,
    );
    rep.set("gpu-sim.transfers", per_op(w.transfers as f64), "count", n);
    rep.set(
        "gpu-sim.transfer_words",
        per_op(w.transfer_words as f64),
        "words",
        n,
    );
    rep.set(
        "gpu-sim.transfer_ms",
        per_op(w.transfer_s * 1e3),
        "model-ms",
        n,
    );
    rep.set(
        "gpu-sim.overlap",
        w.device_s / w.makespan_s.max(f64::MIN_POSITIVE),
        "ratio",
        n,
    );
    rep.set(
        "gpu-sim.host_us_per_launch",
        t.host_s_per_launch * 1e6,
        "us",
        n,
    );
    for (c, ms, launches) in [
        (0, "ntt-gpu.ntt_ms", "ntt-gpu.ntt_launches"),
        (1, "ntt-gpu.keyswitch_ms", "ntt-gpu.keyswitch_launches"),
        (2, "ntt-gpu.elementwise_ms", "ntt-gpu.elementwise_launches"),
    ] {
        rep.set(ms, per_op(w.class_s[c] * 1e3), "model-ms", n);
        rep.set(launches, per_op(w.class_launches[c] as f64), "count", n);
    }
    let coverage = class_coverage(w);
    rep.set("trace.class_coverage", coverage, "ratio", n);
    rep.check(coverage >= MIN_COVERAGE, || {
        format!(
            "kernel classes + transfers explain {coverage:.4} of device time, under {MIN_COVERAGE}"
        )
    });
    rep.notes.push(format!(
        "coverage: kernel classes + transfers = {:.2}% of device_ms ({})",
        coverage * 100.0,
        if coverage >= MIN_COVERAGE {
            "PASS"
        } else {
            "FAIL"
        }
    ));
    for (name, m) in &t.e2e {
        let b = &base.e2e[name];
        let key = format!("trace.overhead.{name}");
        rep.set(&key, m.value - b.value, m.unit, m.samples + b.samples);
    }
}

/// Self time per span, the check that a root's self times add up to it,
/// and the spans as JSON lines.
fn span_report(rep: &mut Report, w: Workload, seed: u64, out_dir: &std::path::Path) {
    let spans = trace::take();
    let (own, ratios) = trace::self_times(&spans);
    let worst = ratios
        .iter()
        .copied()
        .max_by(|a, b| (a - 1.0).abs().total_cmp(&(b - 1.0).abs()))
        .unwrap_or(0.0);
    rep.set("trace.self_sum_ratio", worst, "ratio", ratios.len());
    rep.set("trace.spans", spans.len() as f64, "count", 1);
    let sums_ok = !ratios.is_empty() && ratios.iter().all(|r| (r - 1.0).abs() < 1e-9);
    rep.check(sums_ok, || {
        format!("span self times / root durations: {ratios:?}")
    });
    rep.notes.push(format!(
        "coverage: span self times / root span = {worst:.9} over {} roots ({})",
        ratios.len(),
        if sums_ok { "PASS" } else { "FAIL" }
    ));
    rep.notes.push("self time by span (ms, count):".to_string());
    for (name, count, ms) in trace::self_by_name(&spans, &own) {
        rep.notes
            .push(format!("  {name:<28} {ms:>12.3}  {count:>7}"));
    }
    let path = out_dir.join(format!("spans-{}-seed{seed}.jsonl", w.name()));
    match std::fs::write(&path, trace::to_jsonl(&spans, &own)) {
        Ok(()) => rep.notes.push(format!("spans: {}", path.display())),
        Err(e) => rep.check(false, || format!("writing {}: {e}", path.display())),
    }
}

/// One minimal detailed pass of another workload, for its layer metrics.
fn minimal<S>(spec: &Spec<S>, seed: u64, rep: &mut Report) {
    let mut st = (spec.setup)(seed);
    let p = (spec.pass)(&mut st, Budget::Minimal, true);
    tally(rep, &p);
    for (name, m) in p.layer {
        rep.metrics.insert(name.to_string(), m);
    }
}

fn run(args: &Args, out_dir: &std::path::Path) -> Report {
    let mut rep = match args.workload {
        Workload::Ntt => measure(&NTT, args, out_dir),
        Workload::Boot => measure(&BOOT, args, out_dir),
        Workload::Serve => measure(&SERVE, args, out_dir),
    };
    if args.trace {
        for w in WORKLOADS.into_iter().filter(|&w| w != args.workload) {
            match w {
                Workload::Ntt => minimal(&NTT, args.seed, &mut rep),
                Workload::Boot => minimal(&BOOT, args.seed, &mut rep),
                Workload::Serve => minimal(&SERVE, args.seed, &mut rep),
            }
        }
        let [shoup, barrett, mont] = layers::math::modmul_ns(MODMULS, 5);
        rep.set("math.shoup_ns", shoup, "ns", 5);
        rep.set("math.barrett_ns", barrett, "ns", 5);
        rep.set("math.montgomery_ns", mont, "ns", 5);
    } else {
        // The host-speed normalizer rides along in every run.
        let [shoup, _, _] = layers::math::modmul_ns(MODMULS, 5);
        rep.info("math.shoup_ns", format!("{shoup:.3}"));
    }
    rep.info("threads", layers::core::default_threads());
    rep
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let out_dir = match pin_environment() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: cannot prepare {OUT_DIR}: {e}");
            std::process::exit(1);
        }
    };
    let t0 = Instant::now();
    let mut rep = run(&args, &out_dir);
    let names: &[&str] = if args.trace { &PER_LAYER } else { &E2E };
    let present: Vec<&str> = names
        .iter()
        .copied()
        .filter(|n| rep.metrics.contains_key(*n))
        .collect();
    for name in names.iter().filter(|n| !present.contains(n)) {
        rep.check(false, || format!("metric {name} was not measured"));
    }
    println!(
        "perfbench: workload={} seed={} seconds={} trace={} wall_s={:.1}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        t0.elapsed().as_secs_f64()
    );
    let pinned: Vec<String> = rep.info.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("pinned: {}", pinned.join(" "));
    for note in &rep.notes {
        println!("{note}");
    }
    for name in &present {
        let m = &rep.metrics[*name];
        println!(
            "metric {name:<30} {:>16.6} {:<9} n={}",
            m.value, m.unit, m.samples
        );
    }
    // Measured but not in the JSON line: the host-clock metrics of an
    // untraced run, and serve's latency and throughput.
    for (name, m) in rep
        .metrics
        .iter()
        .filter(|(k, _)| !names.contains(&k.as_str()))
    {
        println!(
            "metric {name:<30} {:>16.6} {:<9} n={} (not in the result line)",
            m.value, m.unit, m.samples
        );
    }
    println!(
        "failed_frac {:.6} ({} of {})",
        rep.failed_frac(),
        rep.failed,
        rep.attempted
    );
    println!("{}", rep.json(&present));
}

#[cfg(test)]
pub(crate) fn pin_for_tests() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        pin_environment().expect("test output directory");
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arguments_parse_and_reject() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload boot --seed 9 --seconds 12 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::Boot, 9, 12.0, true)
        );
        assert!(parse("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(parse("--workload ntt --seed 1 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload ntt --seed 1 --seconds 1").is_err());
    }

    #[test]
    fn metric_lists_are_unique() {
        let mut all: Vec<&str> = E2E.iter().chain(PER_LAYER.iter()).copied().collect();
        assert!(HOST_CLOCK.iter().all(|n| PER_LAYER.contains(n)));
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), E2E.len() + PER_LAYER.len());
    }
}
