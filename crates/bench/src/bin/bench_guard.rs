//! Gate a benchmark recording with within-run ratio gates: one
//! recording, gates between benchmarks *of that same run*.
//!
//! ```text
//! bench_guard <current.json> --gate "GROUP/FAST<=0.6*GROUP/SLOW" [--gate ...]
//! ```
//!
//! A gate `A<=F*B` passes when `ns(A) ≤ F · ns(B)`. Because both sides
//! come from the same host, the same build, and the same measurement
//! window, the comparison is immune to the cross-host variance that made
//! absolute-ns baselines flake (a slow CI runner slows both sides
//! equally). Use this to pin structural speedups — e.g. the fused lazy
//! pipeline must stay well under the strict pipeline it replaced.
//!
//! The recording may be either the repository's wrapped format
//! (`{"benchmarks": [{"id": ..., "ns_per_iter": ...}, ...]}`, e.g.
//! `BENCH_seed.json`) or the raw JSON-lines the criterion shim appends
//! under `CRITERION_JSON=`.
//!
//! Timings are wall-clock medians from short (60 ms) measurement windows,
//! so factors with less than ~25% headroom will flake on shared CI
//! hardware.

use std::collections::BTreeMap;
use std::process::ExitCode;

/// Extract `(id, ns_per_iter)` pairs by scanning for the two keys in
/// order. Tolerates both the wrapped and the JSON-lines layout without a
/// full JSON parser (the shim writes one object per line; the wrapped
/// format nests the same objects in an array).
fn parse_benchmarks(text: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let mut pending_id: Option<String> = None;
    let mut rest = text;
    loop {
        // Find whichever key comes next.
        let next_id = rest.find("\"id\"");
        let next_ns = rest.find("\"ns_per_iter\"");
        match (next_id, next_ns) {
            (Some(i), ns) if ns.is_none_or(|n| i < n) => {
                let after = &rest[i + 4..];
                let Some(start) = after.find('"') else { break };
                let Some(len) = after[start + 1..].find('"') else {
                    break;
                };
                pending_id = Some(after[start + 1..start + 1 + len].to_string());
                rest = &after[start + 1 + len..];
            }
            (_, Some(i)) => {
                let after = &rest[i + 13..];
                let Some(colon) = after.find(':') else { break };
                let num: String = after[colon + 1..]
                    .chars()
                    .skip_while(|c| c.is_whitespace())
                    .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
                    .collect();
                if let (Some(id), Ok(ns)) = (pending_id.take(), num.parse::<f64>()) {
                    out.insert(id, ns);
                }
                rest = &after[colon + 1..];
            }
            _ => break,
        }
    }
    out
}

/// One within-run gate: `current <= factor * reference`.
struct RatioGate {
    current: String,
    factor: f64,
    reference: String,
}

/// Parse `"A<=F*B"` into a [`RatioGate`].
fn parse_gate(spec: &str) -> Option<RatioGate> {
    let (current, rhs) = spec.split_once("<=")?;
    let (factor, reference) = rhs.split_once('*')?;
    Some(RatioGate {
        current: current.trim().to_string(),
        factor: factor.trim().parse().ok()?,
        reference: reference.trim().to_string(),
    })
}

/// Evaluate within-run ratio gates against one recording. Missing
/// benchmark ids are hard errors (exit 2): a gate that cannot run must
/// not silently pass.
fn run_ratio_gates(file: &str, gates: &[RatioGate]) -> ExitCode {
    let text = std::fs::read_to_string(file).unwrap_or_else(|e| panic!("read {file}: {e}"));
    let benchmarks = parse_benchmarks(&text);
    let mut failures = 0usize;
    let mut missing = 0usize;
    println!(
        "{:<52} {:>12} {:>12} {:>8}",
        "gate (current <= factor * reference)", "current ns", "bound ns", "ratio"
    );
    for g in gates {
        let (Some(&cur), Some(&reference)) =
            (benchmarks.get(&g.current), benchmarks.get(&g.reference))
        else {
            eprintln!(
                "missing benchmark for gate {} <= {} * {}",
                g.current, g.factor, g.reference
            );
            missing += 1;
            continue;
        };
        let bound = g.factor * reference;
        let ratio = cur / reference;
        let flag = if cur > bound {
            failures += 1;
            "  << GATE FAILED"
        } else {
            ""
        };
        println!(
            "{:<52} {:>12.1} {:>12.1} {:>7.2}x{}",
            format!("{} <= {}x {}", g.current, g.factor, g.reference),
            cur,
            bound,
            ratio,
            flag
        );
    }
    println!();
    if missing > 0 {
        eprintln!("{missing} gates had missing benchmarks");
        return ExitCode::from(2);
    }
    if failures > 0 {
        eprintln!("{failures}/{} within-run ratio gates failed", gates.len());
        return ExitCode::FAILURE;
    }
    println!("{} within-run ratio gates passed", gates.len());
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut files = Vec::new();
    let mut gates: Vec<RatioGate> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--gate" {
            let spec = it.next().expect("--gate needs a SPEC");
            gates.push(
                parse_gate(spec)
                    .unwrap_or_else(|| panic!("bad gate spec {spec:?} (want \"A<=F*B\")")),
            );
        } else {
            files.push(a.clone());
        }
    }
    if files.len() != 1 || gates.is_empty() {
        eprintln!("usage: bench_guard <current.json> --gate \"A<=F*B\" [--gate ...]");
        return ExitCode::from(2);
    }
    run_ratio_gates(&files[0], &gates)
}
