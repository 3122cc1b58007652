//! The launch memo: each distinct launch of a device is simulated once.
//!
//! A launch's counters and modeled time follow from its kernel's
//! parameters and from where its operand rows sit: relative to one
//! another, and relative to the 32-byte sectors the coalescer counts.
//! They never follow from the words the rows hold. So every
//! [`crate::backend::SimMemory`] keeps the [`LaunchRecord`]s of the
//! launches it simulated under a key of exactly those inputs
//! ([`KeyBuilder`]), and the backend's four kernel entry points run
//! through [`LaunchMemo::run`]:
//!
//! * a **miss** runs the warp kernels, as every launch did before the
//!   memo, and stores the records they left in the trace;
//! * a **hit** computes the outputs natively, in place over the same
//!   GMEM rows, with `ntt-core`'s CPU row functions, and replays the
//!   stored records through [`Gpu::replay`], the path [`Gpu::launch`]
//!   charges and traces through.
//!
//! The trace, the stream timeline, every modeled number and every output
//! word are therefore what simulating the launch would have produced.
//! Debug builds hold every hit to that: they also simulate it, aside,
//! and assert that its records and its output words equal the replayed
//! records and the native outputs.
//!
//! The memo belongs to its device, so a fresh device starts cold, and it
//! holds at most [`MEMO_CAP`] keys: a miss that finds it full empties it
//! first.

use crate::rows::RowTable;
use gpu_sim::{Buf, Gmem, Gpu, LaunchRecord};
use std::collections::HashMap;

/// The most launch keys one device's memo holds.
pub const MEMO_CAP: usize = 1024;

/// A device's memo counters since it was made: launches replayed from a
/// key ([`MemoStats::hits`]) and launches simulated
/// ([`MemoStats::misses`]), and the keys held now. A transform split in
/// two kernels is one key and two launches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Launches computed natively and replayed.
    pub hits: u64,
    /// Launches simulated on the warp kernels.
    pub misses: u64,
    /// Distinct launch keys held (at most [`MEMO_CAP`]).
    pub entries: usize,
}

impl MemoStats {
    /// The counts since `earlier` (`entries` stays the current count).
    pub fn since(&self, earlier: &MemoStats) -> MemoStats {
        MemoStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            entries: self.entries,
        }
    }
}

/// The backend entry point a key belongs to.
#[derive(Clone, Copy)]
pub(crate) enum Entry {
    /// One SMEM transform job (one or two launches).
    Smem,
    /// One element-wise launch.
    Elemwise,
    /// One multi-term FMA launch.
    Fma,
    /// One Galois automorphism launch.
    Automorphism,
}

/// One launch's memo key under construction: its scalar parameters as
/// given, and the GMEM spans it reads or writes (operand rows, each
/// under its prime, and twiddle and OT tables), whose absolute addresses
/// [`KeyBuilder::finish`] replaces by their layout. Every variable-length
/// part is pushed with its length, so two keys are equal only if their
/// parts are.
pub(crate) struct KeyBuilder {
    /// Whether one warp access of the launch can reach two rows (see
    /// [`KeyBuilder::new`]).
    adjacency: bool,
    words: Vec<u64>,
    /// Each span with its row's prime (`TABLE` for a table).
    spans: Vec<(Buf, u64)>,
}

/// The prime slot of a span that is a table, not a row.
const TABLE: u64 = u64::MAX;

/// Whether a one-thread-per-element launch over `n`-word rows needs
/// adjacency in its key: a warp's 32 lanes cover 32 consecutive
/// elements, which span rows below `n = 32`; at `n = 32` two rows back
/// to back put their windows in neighbouring sectors; from `n = 64` on
/// the windows of two rows are at least a window apart.
pub(crate) fn element_adjacency(n: usize) -> bool {
    n < 64
}

impl KeyBuilder {
    /// An empty key of entry point `entry`. `adjacency` says whether one
    /// warp access of the launch can reach two rows, or two rows' windows
    /// one sector apart: then two spans whose sectors only touch can open
    /// one DRAM row where a gap between them opens two, and the key keeps
    /// their relative place. Without it, spans share a group only where
    /// they share a sector.
    pub(crate) fn new(entry: Entry, adjacency: bool) -> Self {
        Self {
            adjacency,
            words: vec![entry as u64],
            spans: Vec::new(),
        }
    }

    /// Append one scalar parameter.
    pub(crate) fn scalar(mut self, v: u64) -> Self {
        self.words.push(v);
        self
    }

    /// Append a list of scalar parameters (the moduli).
    pub(crate) fn scalars(mut self, vs: &[u64]) -> Self {
        self.words.push(vs.len() as u64);
        self.words.extend_from_slice(vs);
        self
    }

    /// Append one GMEM span (a table).
    pub(crate) fn span(mut self, b: Buf) -> Self {
        self.spans.push((b, TABLE));
        self
    }

    /// Append a row table: each row's span and prime.
    pub(crate) fn rows(mut self, t: &RowTable) -> Self {
        self.words.push(t.len() as u64);
        self.spans
            .extend((0..t.len()).map(|r| (t.row(r), t.prime(r) as u64)));
        self
    }

    /// Append an optional row table.
    pub(crate) fn opt_rows(self, t: Option<&RowTable>) -> Self {
        match t {
            Some(t) => self.scalar(1).rows(t),
            None => self.scalar(0),
        }
    }

    /// The key: the scalars, then the spans' layout with `sector` words
    /// per 32-byte sector. Spans whose sectors overlap (or, with
    /// adjacency, touch) form one group, numbered by first appearance;
    /// each span is recorded as its
    /// group, its offset from the group's lowest word, its length and its
    /// prime, and each group, at its first appearance, as its lowest word
    /// mod `sector`. No absolute address is kept: two launches with equal
    /// keys touch the same sectors, in the same runs, up to one sector
    /// shift per group, and groups never share a sector (nor abut one,
    /// with adjacency). A run of
    /// spans that follow one another in the group, under consecutive
    /// primes, is recorded once with its count.
    fn finish(self, sector: usize) -> Vec<u64> {
        let Self {
            adjacency,
            mut words,
            spans,
        } = self;
        let last_sector = |b: &Buf| (b.base() + b.len().max(1) - 1) / sector;
        let mut order: Vec<usize> = (0..spans.len()).collect();
        order.sort_unstable_by_key(|&i| spans[i].0.base());
        // Merge spans in address order into groups of shared (or
        // touching) sectors.
        let (mut group_of, mut low) = (vec![0; spans.len()], Vec::new());
        let mut end = 0;
        for &i in &order {
            let b = &spans[i].0;
            if low.is_empty() || b.base() / sector > end + usize::from(adjacency) {
                low.push(b.base());
                end = last_sector(b);
            } else {
                end = end.max(last_sector(b));
            }
            group_of[i] = low.len() - 1;
        }
        let mut number = vec![None; low.len()];
        let mut next = 0u64;
        words.push(spans.len() as u64);
        let mut i = 0;
        while i < spans.len() {
            let ((b, prime), g) = (spans[i], group_of[i]);
            let follows = |k: usize| {
                let (c, p) = spans[i + k];
                group_of[i + k] == g
                    && c.len() == b.len()
                    && c.base() == b.base() + k * b.len()
                    && p == prime.wrapping_add(k as u64)
            };
            let count = 1 + (1..spans.len() - i).take_while(|&k| follows(k)).count();
            let id = *number[g].get_or_insert_with(|| {
                next += 1;
                words.push((low[g] % sector) as u64);
                next - 1
            });
            let offset = (b.base() - low[g]) as u64;
            words.extend([id, offset, b.len() as u64, prime, count as u64]);
            i += count;
        }
        words
    }
}

/// One device's launch memo (see the module docs).
#[derive(Default)]
pub(crate) struct LaunchMemo {
    entries: HashMap<Vec<u64>, Vec<LaunchRecord>>,
    hits: u64,
    misses: u64,
}

impl LaunchMemo {
    /// The counters.
    pub(crate) fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits,
            misses: self.misses,
            entries: self.entries.len(),
        }
    }

    /// Run one launch job under `key` on `gpu`: on a miss `simulate` it
    /// (its launches through [`Gpu::launch`]) and keep the records it
    /// traced; on a hit run `native`, which must leave in the `written`
    /// rows what `simulate` would, and replay the kept records.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if a hit's native outputs or replayed
    /// records differ from simulating it.
    pub(crate) fn run(
        &mut self,
        gpu: &mut Gpu,
        key: KeyBuilder,
        written: &RowTable,
        simulate: impl Fn(&mut Gpu),
        native: impl FnOnce(&mut Gmem),
    ) {
        let key = key.finish(gpu.config.words_per_transaction());
        let Some(records) = self.entries.get(&key) else {
            let from = gpu.trace.len();
            simulate(gpu);
            self.misses += (gpu.trace.len() - from) as u64;
            if self.entries.len() == MEMO_CAP {
                self.entries.clear();
            }
            self.entries.insert(key, gpu.trace[from..].to_vec());
            return;
        };
        self.hits += records.len() as u64;
        let fresh = cfg!(debug_assertions).then(|| simulate_aside(gpu, written, &simulate));
        native(&mut gpu.gmem);
        if let Some((fresh_records, fresh_words)) = fresh {
            assert!(
                read_rows(&gpu.gmem, written) == fresh_words,
                "memo hit on {}: native outputs differ from simulation",
                records[0].launch.label
            );
            assert!(
                &fresh_records == records,
                "memo hit on {}: stored records differ from simulation",
                records[0].launch.label
            );
        }
        for record in records {
            gpu.replay(record.clone());
        }
    }
}

/// Simulate a launch job without charging it: its records and the words
/// it leaves in `written`, after which `written` holds its inputs again
/// and the trace and stream schedule are as before.
fn simulate_aside(
    gpu: &mut Gpu,
    written: &RowTable,
    simulate: &impl Fn(&mut Gpu),
) -> (Vec<LaunchRecord>, Vec<u64>) {
    let inputs = read_rows(&gpu.gmem, written);
    let (from, streams) = (gpu.trace.len(), gpu.streams.clone());
    simulate(gpu);
    let records = gpu.trace.split_off(from);
    gpu.streams = streams;
    let outputs = read_rows(&gpu.gmem, written);
    let mut words = inputs.as_slice();
    for r in 0..written.len() {
        let row = gpu.gmem.slice_mut(written.row(r));
        let (head, rest) = words.split_at(row.len());
        row.copy_from_slice(head);
        words = rest;
    }
    (records, outputs)
}

/// The words of every row of `t`, back to back.
fn read_rows(gmem: &Gmem, t: &RowTable) -> Vec<u64> {
    (0..t.len())
        .flat_map(|r| gmem.slice(t.row(r)))
        .copied()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::lock_mem;
    use crate::SimBackend;
    use ntt_core::backend::{BackendOp, DeviceBuf, NttBackend, PolyView, RingPlan};
    use ntt_core::RnsRing;

    /// Rows per operand.
    const LEVEL: usize = 2;

    fn plan(n: usize) -> RingPlan {
        RingPlan::new(&RnsRing::new(n, ntt_math::ntt_primes(50, 2 * n as u64, LEVEL)).unwrap())
    }

    /// Allocations of `words` each, back to back.
    fn alloc<const M: usize>(be: &SimBackend, words: [usize; M]) -> [DeviceBuf; M] {
        let mem = be.memory();
        let mut mem = mem.lock().unwrap();
        words.map(|w| mem.alloc(w))
    }

    fn memo(be: &SimBackend) -> MemoStats {
        lock_mem(&be.memory_handle()).memo_stats()
    }

    /// `acc += x ⊙ y` over one `LEVEL`-row view, from the same inputs on
    /// every call: the launch's record and the accumulator it leaves.
    fn fma(
        be: &mut SimBackend,
        plan: &RingPlan,
        [acc, x, y]: [DeviceBuf; 3],
    ) -> (LaunchRecord, Vec<u64>) {
        let fill = |buf: DeviceBuf, seed: u64| {
            let words: Vec<u64> = (0..buf.len() as u64)
                .map(|i| (i * 0x9e37_79b9 + seed * 7919) % (1 << 40))
                .collect();
            be.memory().lock().unwrap().upload(buf, &words);
        };
        fill(acc, 1);
        fill(x, 2);
        if y != x {
            fill(y, 3);
        }
        let views = [PolyView::new(acc, 0..LEVEL)];
        be.run(
            plan,
            BackendOp::Fma {
                acc: &views,
                x: &[x],
                y: &[y],
            },
        );
        let record = be
            .with_gpu(|gpu| gpu.trace.last().cloned())
            .expect("the FMA launched");
        let mut out = vec![0; acc.len()];
        be.memory().lock().unwrap().download(acc, &mut out);
        (record, out)
    }

    /// A squaring FMA (one buffer for both factors, as `multiply(ct, ct)`
    /// issues) reads each shared sector once, so it must not replay the
    /// records of the same shape over two factor buffers: the two get
    /// different keys, and each hit replays what simulating it gives.
    #[test]
    fn a_shared_factor_buffer_keys_apart_from_two() {
        let n = 64;
        let plan = plan(n);
        let mut be = SimBackend::titan_v();
        let [acc, x, y] = alloc(&be, [LEVEL * n; 3]);
        let two = fma(&mut be, &plan, [acc, x, y]);
        let shared = fma(&mut be, &plan, [acc, x, x]);
        let expect = |hits, misses| MemoStats {
            hits,
            misses,
            entries: 2,
        };
        assert_eq!(memo(&be), expect(0, 2), "a shared factor is a new key");
        assert_ne!(
            two.0.stats, shared.0.stats,
            "a shared factor reads fewer sectors"
        );
        assert_eq!(
            fma(&mut be, &plan, [acc, x, y]),
            two,
            "replay of two buffers"
        );
        assert_eq!(
            fma(&mut be, &plan, [acc, x, x]),
            shared,
            "replay of a shared one"
        );
        assert_eq!(memo(&be), expect(2, 2));
    }

    /// At N = 16 a warp spans two rows, so factor rows whose sectors
    /// touch open one DRAM row where a one-sector gap opens two: the
    /// touching and the separated layout get different keys, and each
    /// hit replays what simulating it gives.
    #[test]
    fn touching_operand_sectors_key_apart_from_separated_ones() {
        let n = 16;
        let plan = plan(n);
        let mut be = SimBackend::titan_v();
        let rows = LEVEL * n;
        // `y` right after `x`; then `y2` one 4-word sector after `x2`.
        let [acc, x, y, acc2, x2, _gap, y2] = alloc(&be, [rows, rows, rows, rows, rows, 4, rows]);
        let touching = fma(&mut be, &plan, [acc, x, y]);
        let separated = fma(&mut be, &plan, [acc2, x2, y2]);
        let expect = |hits, misses| MemoStats {
            hits,
            misses,
            entries: 2,
        };
        assert_eq!(memo(&be), expect(0, 2), "a sector gap is a new key");
        assert_ne!(
            touching.0.stats.dram_row_activations,
            separated.0.stats.dram_row_activations
        );
        assert_eq!(
            fma(&mut be, &plan, [acc, x, y]),
            touching,
            "replay of touching"
        );
        assert_eq!(
            fma(&mut be, &plan, [acc2, x2, y2]),
            separated,
            "replay of separated"
        );
        assert_eq!(memo(&be), expect(2, 2));
    }
}
