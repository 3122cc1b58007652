//! Results of one run: named metrics with units and sample counts, the
//! check tally, the pinned state, and the JSON line the run ends with.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value summarizes (1 for a single measurement or count).
    pub samples: usize,
}

/// Everything a run reports.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, Metric>,
    /// Pinned state printed with the results (seed, route, verdicts, ...).
    pub info: BTreeMap<String, String>,
    /// Human-readable lines printed before the JSON result.
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.insert(
            name.to_string(),
            Metric {
                value,
                unit,
                samples,
            },
        );
    }

    pub fn info(&mut self, key: &str, value: impl ToString) {
        self.info.insert(key.to_string(), value.to_string());
    }

    /// Count one checked output; `ok == false` counts it as failed and
    /// records why.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("FAILED CHECK: {}", what()));
        }
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, restricted to `names` in that order.
    pub fn json(&self, names: &[&str]) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, name) in names.iter().enumerate() {
            let m = &self.metrics[*name];
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_number(m.value),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// A finite JSON number with every digit Rust prints (shortest exact
/// round-trip form); non-finite values cannot be JSON and become 0.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Linear-interpolated quantile (`q` in `[0, 1]`) of unsorted samples;
/// NaN when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Peak resident set of this process in MB (`VmHWM`), 0 if unreadable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Largest `|want - got|` over `want`; NaN if any difference is NaN and
/// infinite if `got` is shorter, so a broken answer can never read small.
pub fn max_abs_err(want: &[f64], got: &[f64]) -> f64 {
    if got.len() < want.len() {
        return f64::INFINITY;
    }
    want.iter()
        .zip(got)
        .map(|(w, g)| (w - g).abs())
        .fold(0.0, |m, e| if e.is_nan() || e > m { e } else { m })
}

/// `-log2` of a maximum absolute error (the bits of the result that are
/// right).
pub fn precision_bits(max_err: f64) -> f64 {
    -max_err.max(f64::MIN_POSITIVE).log2()
}

/// SplitMix64: the benchmark's own input generator, so inputs depend on
/// the seed alone and never on the program's random-number code.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for one purpose (`tag`) under one workload seed.
    pub fn new(seed: u64, tag: u64) -> Self {
        let mut r = Rng(seed ^ tag.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
    }

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.check(true, String::new);
        r.set("a_ms", 1.25, "ms", 3);
        r.set("b", 2.0, "count", 1);
        assert_eq!(
            r.json(&["a_ms"]),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn errors_never_hide_nan_or_missing_values() {
        assert_eq!(max_abs_err(&[1.0, 2.0], &[1.5, 2.0, 9.0]), 0.5);
        assert!(max_abs_err(&[1.0, 2.0], &[f64::NAN, 2.0]).is_nan());
        assert_eq!(max_abs_err(&[1.0, 2.0], &[1.0]), f64::INFINITY);
    }

    #[test]
    fn rng_streams_repeat_per_seed_and_differ_per_tag() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(5, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(5, 1).next_u64(), Rng::new(5, 2).next_u64());
    }
}
