//! Spans the benchmark records around its own calls into each layer, in
//! traced runs only. Each span has a name, start, end, parent and request
//! id, plus the device counter deltas read at the same boundaries. Spans
//! stay in memory and are written out as JSON lines when the run ends.
//!
//! Spans nest per thread (a thread-local stack supplies the parent), so
//! every span's children are disjoint and the self times of a root's
//! subtree add up to the root's duration; [`self_times`] reports how far
//! they do.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

/// Span counters: name and value.
type Counters = Vec<(&'static str, f64)>;

thread_local! {
    /// Open spans on this thread: id and the counters attached so far.
    static OPEN: RefCell<Vec<(u64, Counters)>> = const { RefCell::new(Vec::new()) };
}

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub counters: Counters,
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turn span recording on or off for the whole process.
pub fn enable(on: bool) {
    ON.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Run `f` inside a span named `name` for request `req`. Free when
/// tracing is off.
pub fn span<R>(name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|o| o.borrow().last().map(|(p, _)| *p));
    OPEN.with(|o| o.borrow_mut().push((id, Vec::new())));
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    let counters = OPEN.with(|o| o.borrow_mut().pop().map(|(_, c)| c).unwrap_or_default());
    SPANS
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(Span {
            id,
            parent,
            name,
            req,
            start_ns,
            end_ns,
            counters,
        });
    out
}

/// Attach counter deltas to the innermost open span on this thread.
pub fn annotate(counters: &[(&'static str, f64)]) {
    if enabled() {
        OPEN.with(|o| {
            if let Some((_, c)) = o.borrow_mut().last_mut() {
                c.extend_from_slice(counters);
            }
        });
    }
}

/// Take every span recorded so far.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().unwrap_or_else(PoisonError::into_inner))
}

/// Self time of every span (its duration minus the union of its
/// children's intervals), keyed by span id, and for each root the ratio
/// of its subtree's summed self time to its own duration.
pub fn self_times(spans: &[Span]) -> (BTreeMap<u64, u64>, Vec<f64>) {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut own = BTreeMap::new();
    for s in spans {
        let mut iv = children.remove(&s.id).unwrap_or_default();
        iv.sort_unstable();
        let (mut covered, mut reach) = (0u64, s.start_ns);
        for (a, b) in iv {
            let (a, b) = (a.max(reach), b.min(s.end_ns));
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        own.insert(s.id, (s.end_ns - s.start_ns).saturating_sub(covered));
    }
    let parent: BTreeMap<u64, Option<u64>> = spans.iter().map(|s| (s.id, s.parent)).collect();
    let root_of = |mut id: u64| {
        while let Some(Some(p)) = parent.get(&id) {
            id = *p;
        }
        id
    };
    let mut sums: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        *sums.entry(root_of(s.id)).or_default() += own[&s.id];
    }
    let ratios = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|r| sums[&r.id] as f64 / (r.end_ns - r.start_ns).max(1) as f64)
        .collect();
    (own, ratios)
}

/// Self time per span name, in ms, heaviest first.
pub fn self_by_name(spans: &[Span], own: &BTreeMap<u64, u64>) -> Vec<(&'static str, usize, f64)> {
    let mut by: BTreeMap<&'static str, (usize, u64)> = BTreeMap::new();
    for s in spans {
        let e = by.entry(s.name).or_default();
        e.0 += 1;
        e.1 += own[&s.id];
    }
    let mut v: Vec<_> = by
        .into_iter()
        .map(|(n, (c, ns))| (n, c, ns as f64 / 1e6))
        .collect();
    v.sort_by(|a, b| b.2.total_cmp(&a.2));
    v
}

/// Spans as JSON lines, one object per span.
pub fn to_jsonl(spans: &[Span], own: &BTreeMap<u64, u64>) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"req\": {}, \
             \"start_us\": {:.3}, \"end_us\": {:.3}, \"self_us\": {:.3}",
            s.id,
            s.name,
            s.req,
            s.start_ns as f64 / 1e3,
            s.end_ns as f64 / 1e3,
            own[&s.id] as f64 / 1e3
        );
        for (k, v) in &s.counters {
            let _ = write!(out, ", \"{k}\": {}", crate::report::json_number(*v));
        }
        out.push_str("}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            req: 0,
            start_ns,
            end_ns,
            counters: Vec::new(),
        }
    }

    #[test]
    fn self_times_subtract_children_and_sum_to_the_root() {
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 50, 60),
            span(4, Some(2), 20, 30),
        ];
        let (own, ratios) = self_times(&spans);
        assert_eq!(own[&1], 60);
        assert_eq!(own[&2], 20);
        assert_eq!(own[&3], 10);
        assert_eq!(own[&4], 10);
        assert_eq!(ratios, vec![1.0]);
    }
}
