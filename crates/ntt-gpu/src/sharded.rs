//! [`SimDevices`]: the simulated-GPU implementation of [`NttBackend`],
//! over `K` simulated devices.
//!
//! One implementation, two constructors. [`crate::SimBackend`]`::titan_v()`
//! is the `K = 1` instance and reports `gpu-sim`;
//! [`ShardedBackend`]`::titan_v(k, n)` spreads RNS rows over `k` devices
//! and reports `gpu-sim-sharded` at every `k`. Both are type aliases of
//! [`SimDevices`], so every routing decision, fault gate, staging path and
//! kernel below serves both, and every output is **bit-identical** to
//! [`ntt_core::backend::CpuBackend`] for any `K` — pinned by
//! `tests/backend_conformance.rs` and `tests/sharded.rs`.
//!
//! The RNS row decomposition that makes the paper's batched NTT
//! embarrassingly parallel *within* one GPU also partitions cleanly
//! *across* GPUs: residue rows are independent under forward/inverse
//! NTTs and every element-wise ring op, so row `r` can live on shard
//! `r % K` (cyclic, at local row `r / K`) for its whole life and never
//! move. The partition is cyclic rather than block-contiguous because
//! of how the key-switch inner product slices its operands: its one
//! multi-term FMA reads term `k` of each accumulator from the digit
//! sub-view at row offset `k * level` of the decompose scratch, and
//! under a cyclic partition those views land on the same shards as the
//! `level`-row accumulators whenever `level % K == 0` — every term's
//! gather stays link-free instead of re-gathering a near-full operand
//! per digit. What does move is the key-switch base-conversion
//! itself: gadget digit decomposition reads **every** residue row of
//! the source polynomial to build each digit, so the digit forward
//! (whose load decomposes) pays an explicit all-gather of the remote
//! source rows over the inter-device link — the same traffic pattern
//! multi-GPU HE systems report as their scaling ceiling. The
//! one-source-prime lift a rescale's and a mod-raise's forward loads
//! (broadcast of each component's dropped row, of the level-1 row) pays
//! the same way, just `N` words per component instead of `level * N`;
//! the rest of an evaluation-domain rescale stays on the shards that own
//! the rows.
//!
//! Every device op runs through one dispatcher, `Held::each_shard`, at
//! **one launch per shard**: each shard lists the rows it owns of every
//! written view in one row-address table, gathers what those rows read,
//! and hands its kernels one read table per operand — the same rows, one
//! broadcast row, or every row (a load's all-gather), as the
//! operand's `RowMap` says. So both components of a ciphertext, or one
//! dropped row of each, share a launch, and every kernel takes the same
//! operand shape. A host batch is its device op over staged rows
//! (`Held::stage`): each operand goes up into one of the executor's two
//! grow-only staging allocations, which the cyclic partition spreads like
//! every resident one, the device op runs on them through the same
//! dispatcher, and the batch's rows come back down.
//!
//! Every shard is a full simulated device ([`SimMemory`] over its own
//! [`gpu_sim::Gpu`]): its own GMEM, its own stream scheduler, its own
//! PCIe link, and its own fault plane. The shards are joined by a
//! modeled point-to-point link (`GpuConfig::link_bw` /
//! `GpuConfig::link_latency_s`); cross-shard moves are driven by a
//! dedicated **copy-engine stream** on each endpoint (the modeled
//! analogue of the DMA engines that feed a GPU's NVLink ports): the
//! source engine fences on the producing kernel's completion event,
//! both engines charge the wire ([`gpu_sim::Gpu::link_stall`]), and
//! the consuming compute stream fences on the landing. Compute and
//! communication overlap exactly as far as the data dependencies
//! allow — a transfer never serializes behind unrelated kernels
//! already enqueued on either device, which is what a real NCCL copy
//! on its own stream buys. Functional bytes move through the raw
//! (uncharged) GMEM accessors — the modeled cost is the explicit link
//! charge, not a double-counted PCIe transfer.
//!
//! # `K = 1`
//!
//! The single device is this code at `K = 1`, not a second code path.
//! Every allocation stays unpartitioned on shard 0, so the backend needs
//! no ring degree and serves any plan; there is no link and no copy
//! engine; every operand "gather" is the zero-copy direct reference. Each
//! op therefore issues exactly the launches, transfers and fault draws of
//! one device: a host batch uploads each operand once, runs its device op
//! and downloads once; a device op launches once per kernel; an alloc
//! checks once.
//!
//! # Locks
//!
//! [`ShardedMemory`] sits behind one mutex, shared by every fork and
//! every device-resident polynomial. Each shard's [`SimMemory`] sits
//! behind a mutex of its own, which is what
//! [`crate::SimBackend::memory_handle`] hands to observers. The lock
//! order is fixed: **the sharded-memory lock first, then shard locks in
//! shard order** — never a shard lock before the sharded one. An op
//! takes every shard lock once, up front, and holds them all until it
//! finishes (`ShardedMemory::hold`), so an observer that locks one
//! shard sees whole ops, never half of one.
//!
//! # Operand misalignment
//!
//! Device ops receive *views*, and two operands of one op can slice
//! allocations with different row counts — the key-switch FMA reads
//! its terms as digit sub-views of a `level·digits·level`-row scratch
//! against a `level`-row accumulator, so their partitions need not line
//! up. The *written* operand's partition decides placement: each shard
//! runs the written rows it owns, and any read row resident elsewhere is
//! gathered into shard-local scratch over the link first
//! (`Held::gather_rows`). Aligned operands (the common case) gather into
//! a zero-copy direct reference; misaligned ones pay honest link
//! traffic.

use crate::backend::{
    best_split, classify, ensure_tables, launch_automorphism, launch_elemwise, launch_fma,
    lock_mem, run_forward, run_inverse, ElemOp, SimMemory,
};
use crate::rows::{LoadMap, LoadRows, RowTable};
use crate::smem::SmemConfig;
use gpu_sim::{Buf, DeviceTimeline, Event, FaultOp, GpuConfig, Stream};
use ntt_core::backend::{
    handle_namespace, BackendError, BackendOp, DeviceBuf, DeviceMemory, Load, NttBackend, PolyView,
    RingPlan, SharedDeviceMemory, SubScale, TransferStats,
};
use std::collections::HashMap;
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::{Arc, Mutex, MutexGuard};

/// Inter-device link traffic ledger (the sharded counterpart of
/// [`TransferStats`]): each cross-shard move counts once, with its
/// words, whichever way it goes.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LinkStats {
    /// Cross-shard moves issued.
    pub transfers: usize,
    /// Total words moved between shards.
    pub words: usize,
}

impl LinkStats {
    /// Counter deltas since an earlier snapshot.
    pub fn since(&self, earlier: &LinkStats) -> LinkStats {
        LinkStats {
            transfers: self.transfers - earlier.transfers,
            words: self.words - earlier.words,
        }
    }
}

/// Number of residue rows of a `rows`-row allocation owned by shard
/// `s` of `k` under the cyclic partition (row `r` lives on shard
/// `r % k`, at local row `r / k`). Requires `s < k`.
fn rows_on_shard(rows: usize, k: usize, s: usize) -> usize {
    (rows + k - 1 - s) / k
}

/// An ascending progression of view-relative row indices `first,
/// first + step, …` (`count` of them): the rows one shard owns under
/// the cyclic partition (`step = K`), or a contiguous run (`step = 1`).
#[derive(Debug, Clone, Copy)]
struct Rows {
    first: usize,
    step: usize,
    count: usize,
}

impl Rows {
    /// Rows `first..first + count`.
    fn run(first: usize, count: usize) -> Self {
        Rows {
            first,
            step: 1,
            count,
        }
    }

    /// The `i`-th row of the progression.
    fn get(&self, i: usize) -> usize {
        self.first + i * self.step
    }

    /// The rows in order.
    fn iter(self) -> impl Iterator<Item = usize> {
        (0..self.count).map(move |i| self.get(i))
    }
}

/// How a read operand's rows line up with the rows a device op writes.
#[derive(Debug, Clone, Copy)]
enum RowMap {
    /// Written row `r` reads row `r` of its read view.
    Same,
    /// Every row of the read view is gathered, and written row `r` of a
    /// `W`-row view reads row `r / (W / R)` of its `R`-row read view: one
    /// row for all (a lift's broadcast), or one source row per block of
    /// digit rows (the digit load's all-gather).
    All,
}

/// One read operand of a device op: per written view, the view it reads.
type Read<'v> = (&'v [PolyView], RowMap);

/// One shard's part of an op, as its kernels see it.
struct Launch {
    /// The rows written, of every view in view order, each under its
    /// view's prime.
    dst: RowTable,
    /// Per read operand, the row each written row reads.
    src: Vec<RowTable>,
    /// Per written row, its row index in its view.
    index: Vec<usize>,
}

/// One logical allocation spread over the shard set.
struct ShardAlloc {
    /// Total words of the logical allocation.
    len: usize,
    /// Residue rows partitioned across shards; `0` means the
    /// allocation is not partitioned and lives whole on shard 0 (every
    /// allocation at `K = 1`).
    rows: usize,
    /// Per-shard local handle (`None` where the shard owns no rows).
    parts: Vec<Option<DeviceBuf>>,
}

/// The allocation behind a logical view.
///
/// # Panics
///
/// Panics on a freed or foreign handle, or a view past its allocation —
/// invariant assertions (the fallible surface pre-validates with
/// [`ShardedMemory::is_live`]).
fn alloc_of(map: &HashMap<u64, ShardAlloc>, view: DeviceBuf) -> &ShardAlloc {
    let a = map.get(&view.id()).expect("freed or foreign DeviceBuf");
    assert!(
        view.base() + view.len() <= a.len,
        "view outside its allocation"
    );
    a
}

/// A shard-local piece of a logical view.
struct Seg {
    /// Owning shard.
    shard: usize,
    /// Word range of the *view* this piece covers.
    view: Range<usize>,
    /// The piece as a view into the shard-local allocation.
    local: DeviceBuf,
}

/// One shard's slice of a device-op view: the view-relative rows it
/// owns and the locally *contiguous* piece holding them in that order.
struct RowSeg {
    shard: usize,
    rows: Rows,
    /// The rows as one contiguous view into the shard-local part.
    local: DeviceBuf,
}

/// A secondary operand materialized on one shard: either a zero-copy
/// reference to the resident piece or gathered scratch that must go
/// back via `Held::release_gather`.
struct Gathered {
    buf: Buf,
    scratch: bool,
}

/// The modeled inter-device link: one copy-engine stream per shard
/// (none at `K = 1`, which has no link) and the traffic ledger.
struct Link {
    streams: Vec<Stream>,
    stats: LinkStats,
}

impl Link {
    /// Move `src.len()` words from a raw buffer on shard `from` to a
    /// raw buffer on shard `to` over the modeled link, driven by the
    /// two endpoints' **copy-engine streams** rather than their compute
    /// streams. The source engine fences on `ready` (the data
    /// dependency — events are modeled times on clocks that share
    /// `t = 0`, so they compare across devices), charges the wire, and
    /// hands its completion event to the destination engine, which
    /// charges its side and records the landing. Compute on both
    /// shards keeps running: a transfer serializes only behind earlier
    /// transfers on the same engine and the data it actually needs,
    /// never behind unrelated kernels already enqueued.
    ///
    /// Returns `(sent, landed)`: the source-side completion (the
    /// write-after-read fence for the source allocation) and the
    /// destination-side completion (what a consumer of `dst` must wait
    /// on). Readiness bookkeeping for tracked allocations is the
    /// caller's job.
    fn move_words(
        &mut self,
        sh: &mut [MutexGuard<'_, SimMemory>],
        from: usize,
        ready: Event,
        src: Buf,
        to: usize,
        dst: Buf,
    ) -> (Event, Event) {
        debug_assert_ne!(from, to, "link move within one shard");
        let words = src.len();
        assert_eq!(words, dst.len(), "link endpoints must agree on size");
        // Functional move through the raw (uncharged) GMEM accessors;
        // the modeled cost is the explicit link charge below.
        let data = sh[from].gpu().gmem.slice(src).to_vec();
        let ls = self.streams[from];
        let sg = sh[from].gpu_mut();
        let prev = sg.active_stream();
        sg.wait_event(ls, ready);
        sg.set_active_stream(ls);
        sg.link_stall(words);
        let sent = sg.record_event(ls);
        sg.set_active_stream(prev);
        let ld = self.streams[to];
        let dg = sh[to].gpu_mut();
        let prev = dg.active_stream();
        dg.wait_event(ld, sent);
        dg.set_active_stream(ld);
        dg.link_stall(words);
        let landed = dg.record_event(ld);
        dg.set_active_stream(prev);
        dg.gmem.write(dst, 0, &data);
        self.stats.transfers += 1;
        self.stats.words += words;
        (sent, landed)
    }
}

/// `K` simulated devices joined by a modeled inter-device link, behind
/// one [`DeviceMemory`]: logical handles map to per-shard pieces, row
/// `r` of a row-shaped allocation living on shard `r % K` at local row
/// `r / K` (the cyclic partition — see the module docs for why; at
/// `K = 1` nothing is partitioned). Shared by every fork of a
/// [`SimDevices`] backend.
pub struct ShardedMemory {
    /// Each shard's device behind its own lock (taken only after this
    /// memory's lock — see the module docs).
    shards: Vec<Arc<Mutex<SimMemory>>>,
    /// Per-shard copy-engine streams and the traffic ledger:
    /// cross-shard transfers charge these, not the compute streams, so
    /// a gather in flight never serializes behind unrelated kernels
    /// already enqueued on either endpoint — the modeled analogue of a
    /// GPU's dedicated copy engine driving the NVLink port while the SMs
    /// keep working.
    link: Link,
    map: HashMap<u64, ShardAlloc>,
    next_id: u64,
    /// Row granularity (ring degree `N`) used to partition allocations
    /// (unused at `K = 1`).
    n: usize,
}

impl ShardedMemory {
    /// `k` fresh devices of the same model, partitioning at ring
    /// degree `degree` (ignored when `k == 1`: one device partitions
    /// nothing).
    ///
    /// Handle ids start in a process-unique namespace
    /// ([`ntt_core::backend::handle_namespace`]) so a [`DeviceBuf`]
    /// minted by one memory never resolves against another — a foreign
    /// handle surfaces as [`BackendError::Fatal`] on the fallible paths
    /// instead of silently aliasing an unrelated allocation.
    pub fn new(config: GpuConfig, k: usize, degree: usize) -> Self {
        assert!(k >= 1, "need at least one shard");
        assert!(degree >= 1, "ring degree must be positive");
        let shards: Vec<Arc<Mutex<SimMemory>>> = (0..k)
            .map(|_| Arc::new(Mutex::new(SimMemory::new(config.clone()))))
            .collect();
        let streams = if k > 1 {
            shards
                .iter()
                .map(|sh| lock_mem(sh).gpu_mut().create_stream())
                .collect()
        } else {
            Vec::new()
        };
        Self {
            shards,
            link: Link {
                streams,
                stats: LinkStats::default(),
            },
            map: HashMap::new(),
            next_id: handle_namespace(),
            n: degree,
        }
    }

    /// Number of devices in the shard set.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// One shard's simulated device memory (timeline, trace, GMEM), as
    /// the shared handle ops lock it through.
    pub fn shard(&self, s: usize) -> Arc<Mutex<SimMemory>> {
        Arc::clone(&self.shards[s])
    }

    /// The inter-device traffic ledger.
    pub fn link_stats(&self) -> LinkStats {
        self.link.stats
    }

    /// Aggregate device timeline: makespan is the slowest shard's
    /// overlapped clock (the devices run concurrently), while
    /// serialized time, launches and transfers sum over the set.
    pub fn timeline(&self) -> DeviceTimeline {
        let mut agg = DeviceTimeline::default();
        for t in self.shard_timelines() {
            agg.serialized_s += t.serialized_s;
            agg.overlapped_s = agg.overlapped_s.max(t.overlapped_s);
            agg.launches += t.launches;
            agg.transfers += t.transfers;
        }
        agg
    }

    /// Per-shard timelines (for balance diagnostics in the harness).
    pub fn shard_timelines(&self) -> Vec<DeviceTimeline> {
        self.shards
            .iter()
            .map(|sh| lock_mem(sh).gpu().timeline())
            .collect()
    }

    /// Drain every shard's stream schedule.
    pub fn sync_all(&mut self) {
        for sh in &self.shards {
            lock_mem(sh).gpu_mut().sync_all();
        }
    }

    /// Whether a logical handle view still resolves to a live
    /// allocation (the fallible surface's non-panicking handle check).
    fn is_live(&self, buf: DeviceBuf) -> bool {
        self.map
            .get(&buf.id())
            .is_some_and(|a| buf.base() + buf.len() <= a.len)
    }

    /// Lock every shard, in shard order, for the whole of one op (the
    /// caller already holds this memory's lock, which fixes the order).
    fn hold(&mut self) -> Held<'_> {
        Held {
            sh: self.shards.iter().map(|sh| lock_mem(sh)).collect(),
            map: &mut self.map,
            next_id: &mut self.next_id,
            n: self.n,
            link: &mut self.link,
        }
    }
}

/// A [`ShardedMemory`] with every shard locked: what one op runs on.
struct Held<'a> {
    /// Each shard's device, locked (index = shard).
    sh: Vec<MutexGuard<'a, SimMemory>>,
    map: &'a mut HashMap<u64, ShardAlloc>,
    next_id: &'a mut u64,
    n: usize,
    link: &'a mut Link,
}

impl Held<'_> {
    /// Route every shard's launches and charged transfers to this
    /// executor's stream on it.
    fn bind(&mut self, streams: &[Stream]) {
        for (sh, &s) in self.sh.iter_mut().zip(streams) {
            sh.bind(s);
        }
    }

    /// Residue rows a `words`-word allocation is partitioned into: `0`
    /// (whole on shard 0) at `K = 1` or when `words` is not a whole
    /// number of rows.
    fn partition_rows(&self, words: usize) -> usize {
        if self.sh.len() > 1 && words.is_multiple_of(self.n) {
            words / self.n
        } else {
            0
        }
    }

    /// Words shard `s` holds of a `words`-word allocation partitioned
    /// into `rows` rows (`None` where it holds no part).
    fn share(&self, rows: usize, words: usize, s: usize) -> Option<usize> {
        if rows == 0 {
            (s == 0).then_some(words)
        } else {
            Some(rows_on_shard(rows, self.sh.len(), s) * self.n).filter(|&w| w > 0)
        }
    }

    fn alloc(&mut self, words: usize) -> DeviceBuf {
        let rows = self.partition_rows(words);
        let mut parts = Vec::with_capacity(self.sh.len());
        for s in 0..self.sh.len() {
            let share = self.share(rows, words, s);
            parts.push(share.map(|w| self.sh[s].alloc(w)));
        }
        *self.next_id += 1;
        self.map.insert(
            *self.next_id,
            ShardAlloc {
                len: words,
                rows,
                parts,
            },
        );
        DeviceBuf::root(*self.next_id, words)
    }

    fn free(&mut self, buf: DeviceBuf) {
        if let Some(a) = self.map.remove(&buf.id()) {
            for (s, part) in a.parts.iter().enumerate() {
                if let Some(p) = part {
                    self.sh[s].free(*p);
                }
            }
        }
    }

    /// Split a logical view into its shard-local pieces, in view order.
    /// Under the cyclic partition a multi-row view alternates shards
    /// every `n` words, so pieces are at most one row long; an
    /// unpartitioned allocation is one piece.
    fn segments(&self, view: DeviceBuf) -> Vec<Seg> {
        let a = alloc_of(self.map, view);
        if a.rows == 0 {
            let local = a.parts[0].expect("unpartitioned alloc lives on shard 0");
            return vec![Seg {
                shard: 0,
                view: 0..view.len(),
                local: local.sub(view.base(), view.len()),
            }];
        }
        let (n, k) = (self.n, self.sh.len());
        let (v0, v1) = (view.base(), view.base() + view.len());
        let mut out = Vec::new();
        let mut w = v0;
        while w < v1 {
            let r = w / n;
            let hi = v1.min((r + 1) * n);
            let part = a.parts[r % k].expect("owned rows have a local part");
            out.push(Seg {
                shard: r % k,
                view: (w - v0)..(hi - v0),
                local: part.sub((r / k) * n + (w - r * n), hi - w),
            });
            w = hi;
        }
        out
    }

    /// Per-shard contiguous local span of a view plus the (view-order)
    /// view ranges that fill it — the host-transfer batching shape.
    /// The cyclic pieces of one shard interleave in *view* order but
    /// sit back to back in *local* order (interior rows are whole, only
    /// the view's first and last row can be partial), so each shard's
    /// traffic stays one PCIe transfer.
    fn shard_pieces(&self, view: DeviceBuf) -> Vec<(usize, DeviceBuf, Vec<Range<usize>>)> {
        let segs = self.segments(view);
        let a = alloc_of(self.map, view);
        let mut out = Vec::new();
        for s in 0..self.sh.len() {
            let mine: Vec<&Seg> = segs.iter().filter(|g| g.shard == s).collect();
            let Some(first) = mine.first() else { continue };
            let part = a.parts[s].expect("owned rows have a local part");
            let start = first.local.base() - part.base();
            let total: usize = mine.iter().map(|g| g.view.len()).sum();
            debug_assert!(
                mine.windows(2)
                    .all(|w| w[0].local.base() + w[0].local.len() == w[1].local.base()),
                "per-shard pieces must be locally contiguous"
            );
            out.push((
                s,
                part.sub(start, total),
                mine.iter().map(|g| g.view.clone()).collect(),
            ));
        }
        out
    }

    /// Front-of-view fill, fanned out: each shard charges its own PCIe
    /// link on its bound stream (one transfer per shard, the cyclic rows
    /// packed into local order host-side), so a `K`-way upload overlaps
    /// `K` ways.
    fn upload(&mut self, dst: DeviceBuf, src: &[u64]) {
        for (s, span, views) in self.shard_pieces(dst.sub(0, src.len())) {
            if let [v] = views.as_slice() {
                self.sh[s].upload(span, &src[v.clone()]);
            } else {
                let mut host = Vec::with_capacity(span.len());
                for v in &views {
                    host.extend_from_slice(&src[v.clone()]);
                }
                self.sh[s].upload(span, &host);
            }
        }
    }

    fn download(&mut self, src: DeviceBuf, dst: &mut [u64]) {
        for (s, span, views) in self.shard_pieces(src.sub(0, dst.len())) {
            if let [v] = views.as_slice() {
                self.sh[s].download(span, &mut dst[v.clone()]);
            } else {
                let mut host = vec![0u64; span.len()];
                self.sh[s].download(span, &mut host);
                let mut off = 0;
                for v in &views {
                    dst[v.clone()].copy_from_slice(&host[off..off + v.len()]);
                    off += v.len();
                }
            }
        }
    }

    /// Word-wise intersection of the two partitions: co-resident
    /// stretches copy d2d, the rest crosses the link.
    fn copy(&mut self, src: DeviceBuf, dst: DeviceBuf) {
        let s_segs = self.segments(src);
        let d_segs = self.segments(dst.sub(0, src.len()));
        for ss in &s_segs {
            for ds in &d_segs {
                let lo = ss.view.start.max(ds.view.start);
                let hi = ss.view.end.min(ds.view.end);
                if lo >= hi {
                    continue;
                }
                let sl = ss.local.sub(lo - ss.view.start, hi - lo);
                let dl = ds.local.sub(lo - ds.view.start, hi - lo);
                if ss.shard == ds.shard {
                    self.sh[ss.shard].copy(sl, dl);
                } else {
                    // The wire waits for both the source bytes and the
                    // destination's previous readers/writers (flow
                    // control), then the landing becomes the
                    // destination allocation's readiness fence — no
                    // compute stream on either side stalls here.
                    let sroot = self.sh[ss.shard].root_base(sl);
                    let droot = self.sh[ds.shard].root_base(dl);
                    let ready = self.sh[ss.shard]
                        .ready_fence(&[sroot])
                        .max(self.sh[ds.shard].ready_fence(&[droot]));
                    let sraw = self.sh[ss.shard].raw_buf(sl);
                    let draw = self.sh[ds.shard].raw_buf(dl);
                    let (sent, landed) =
                        self.link
                            .move_words(&mut self.sh, ss.shard, ready, sraw, ds.shard, draw);
                    self.sh[ss.shard].fence_until(sroot, sent);
                    self.sh[ds.shard].fence_until(droot, landed);
                }
            }
        }
    }

    /// Row-aligned shard pieces of a device-op view. Device ops always
    /// pass row-aligned views (the evaluator slices at digit
    /// boundaries), and the cyclic partition cuts on row boundaries by
    /// construction, so alignment is an invariant — the asserts catch a
    /// plan whose degree differs from the partition granularity before
    /// a kernel reads garbage. An unpartitioned allocation is one piece
    /// (the cyclic formula at one shard).
    fn row_segments(&self, view: DeviceBuf, n: usize) -> Vec<RowSeg> {
        let a = alloc_of(self.map, view);
        assert_eq!(view.base() % n, 0, "device-op views must be row-aligned");
        assert_eq!(view.len() % n, 0, "device-op views must be row-aligned");
        let k = if a.rows == 0 {
            1
        } else {
            assert_eq!(
                n, self.n,
                "ShardedBackend partitions at the ring degree it was constructed for"
            );
            self.sh.len()
        };
        let (vb, vrows) = (view.base() / n, view.len() / n);
        (0..k)
            .filter_map(|s| {
                // First global row >= vb congruent to s mod k.
                let g0 = vb + ((s + k - vb % k) % k);
                (g0 < vb + vrows).then(|| {
                    let count = (vb + vrows - g0).div_ceil(k);
                    RowSeg {
                        shard: s,
                        rows: Rows {
                            first: g0 - vb,
                            step: k,
                            count,
                        },
                        local: a.parts[s]
                            .expect("owned rows have a local part")
                            .sub((g0 / k) * n, count * n),
                    }
                })
            })
            .collect()
    }

    /// Materialize `rows` of the row-aligned `view` (`n`-word rows) on
    /// shard `to`, in progression order.
    ///
    /// If every row already lives on `to` at consecutive local rows,
    /// that span is returned directly — zero traffic, the
    /// aligned-operand fast path (this is what the cyclic partition
    /// buys: key-switch digit views hit it whenever `level % K == 0`,
    /// and at `K = 1` every gather does). Otherwise scratch is acquired
    /// on `to` and every row is pulled in: same-shard rows move d2d,
    /// remote rows over the link. This *is* the base-conversion
    /// all-gather when `view` is a digit load's source. Pair with
    /// [`release_gather`](Held::release_gather).
    fn gather_rows(&mut self, view: DeviceBuf, rows: Rows, n: usize, to: usize) -> Gathered {
        let a = alloc_of(self.map, view);
        assert_eq!(view.base() % n, 0, "gathered views must be row-aligned");
        assert!(
            rows.count == 0 || (rows.get(rows.count - 1) + 1) * n <= view.len(),
            "gathered row outside the view"
        );
        // View row j is global row vb + j: on shard (vb + j) % k at local
        // row (vb + j) / k (an unpartitioned allocation is the k = 1 case).
        let k = if a.rows == 0 { 1 } else { self.sh.len() };
        let vb = view.base() / n;
        let g0 = vb + rows.first;
        if rows.count > 0 && g0 % k == to && (rows.count == 1 || rows.step == k) {
            let part = a.parts[to].expect("owned rows have a local part");
            let span = part.sub((g0 / k) * n, rows.count * n);
            let sh = &mut self.sh[to];
            let root = sh.root_base(span);
            sh.wait_ready(&[root]);
            return Gathered {
                buf: sh.raw_buf(span),
                scratch: false,
            };
        }
        let scratch = self.sh[to].acquire_scratch(rows.count * n);
        let mut landed = Event::DONE;
        for i in 0..rows.count {
            let g = vb + rows.get(i);
            let s = g % k;
            let local = a.parts[s]
                .expect("owned rows have a local part")
                .sub((g / k) * n, n);
            let dst = scratch.sub(i * n, n);
            let root = self.sh[s].root_base(local);
            let raw = self.sh[s].raw_buf(local);
            if s == to {
                self.sh[to].wait_ready(&[root]);
                self.sh[to].gpu_mut().gmem.copy(raw, dst);
            } else {
                // The copy engines do the waiting; `to`'s compute
                // stream only fences on the landings.
                let ready = self.sh[s].ready_fence(&[root]);
                let (sent, l) = self.link.move_words(&mut self.sh, s, ready, raw, to, dst);
                self.sh[s].fence_until(root, sent);
                landed = landed.max(l);
            }
        }
        let g = self.sh[to].gpu_mut();
        let cs = g.active_stream();
        g.wait_event(cs, landed);
        Gathered {
            buf: scratch,
            scratch: true,
        }
    }

    /// Return gathered scratch to shard `s` for reuse (no-op for the
    /// zero-copy direct case).
    fn release_gather(&mut self, s: usize, g: Gathered) {
        if g.scratch {
            self.sh[s].release_scratch(g.buf);
        }
    }

    /// Each shard's pieces of the `written` views, tagged with the view
    /// they belong to: the rows a device op's dispatch walks.
    fn by_shard(&self, written: &[PolyView], n: usize) -> Vec<Vec<(usize, RowSeg)>> {
        let mut by_shard: Vec<Vec<(usize, RowSeg)>> = self.sh.iter().map(|_| Vec::new()).collect();
        for (k, view) in written.iter().enumerate() {
            for seg in self.row_segments(view.buf, n) {
                by_shard[seg.shard].push((k, seg));
            }
        }
        by_shard
    }

    /// Which shards hold a part of a `words`-word allocation.
    fn holders(&self, words: usize) -> Vec<bool> {
        let rows = self.partition_rows(words);
        (0..self.sh.len())
            .map(|s| self.share(rows, words, s).is_some())
            .collect()
    }

    /// Which shards `op` issues commands on: those a host batch's staged
    /// rows land on ([`Held::stage`]), or those owning a row of a device
    /// op's written views, as its dispatch walks them.
    fn issuing(&self, op: &BackendOp<'_>) -> Vec<bool> {
        match op {
            BackendOp::ForwardBatch(b)
            | BackendOp::InverseBatch(b)
            | BackendOp::PointwiseBatch { acc: b, .. }
            | BackendOp::MultiplyBatch { out: b, .. } => self.holders(b.as_slice().len()),
            _ => {
                let by_shard = self.by_shard(&written_views(op), self.n);
                by_shard.iter().map(|segs| !segs.is_empty()).collect()
            }
        }
    }

    /// Upload each of `host` into its own grow-only allocation of
    /// `staging`, freeing one it has outgrown, and return them as views of
    /// the operands' length: the rows a host batch runs its device op
    /// over. The plan's tables go up first on every shard the rows land
    /// on, before any staging is allocated there.
    fn stage<const M: usize>(
        &mut self,
        plan: &RingPlan,
        staging: &mut Staging,
        host: [&[u64]; M],
    ) -> [DeviceBuf; M] {
        let words = host[0].len();
        for (s, holds) in self.holders(words).into_iter().enumerate() {
            if holds {
                ensure_tables(&mut self.sh[s], plan);
            }
        }
        let mut slots = staging.iter_mut();
        host.map(|rows| {
            assert_eq!(rows.len(), words, "operand shape mismatch");
            let slot = slots.next().expect("one staging allocation per operand");
            let buf = match *slot {
                Some(buf) if buf.len() >= words => buf,
                outgrown => {
                    if let Some(buf) = outgrown {
                        self.free(buf);
                    }
                    *slot.insert(self.alloc(words))
                }
            };
            let view = buf.sub(0, words);
            self.upload(view, rows);
            view
        })
    }

    /// The split of every `n`-point transform in both directions
    /// ([`best_split`]), swept on a scratch single device the first time
    /// a transform of `n` points runs and cached in `splits` by `n`:
    /// per-shard row counts shrink with `K`, but the split is decided by
    /// `N`.
    fn split(&self, splits: &Splits, n: usize) -> SmemConfig {
        let mut cache = splits
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *cache
            .entry(n)
            .or_insert_with(|| best_split(&self.sh[0].gpu().config, n))
    }

    /// Run `op` on the locked shards. A device op runs through
    /// [`Held::each_shard`]. A host batch runs as its device op over its
    /// operands staged in `staging` ([`Held::stage`]), and its rows come
    /// back down: one upload per operand and one download on each shard
    /// the rows land on. A staged multiply is the resident one, a forward
    /// of both operands in one op, a pointwise product and an inverse.
    fn run(&mut self, plan: &RingPlan, staging: &mut Staging, splits: &Splits, op: BackendOp<'_>) {
        let n = plan.degree();
        let written = written_views(&op);
        match op {
            BackendOp::ForwardBatch(mut batch) => {
                let [x] = self.stage(plan, staging, [batch.as_slice()]);
                let views = [PolyView::new(x, batch.primes())];
                let op = BackendOp::Forward {
                    views: &views,
                    load: None,
                    fold: None,
                };
                self.run(plan, staging, splits, op);
                self.download(x, batch.data());
            }
            BackendOp::InverseBatch(mut batch) => {
                let [x] = self.stage(plan, staging, [batch.as_slice()]);
                let views = [PolyView::new(x, batch.primes())];
                self.run(plan, staging, splits, BackendOp::Inverse { views: &views });
                self.download(x, batch.data());
            }
            BackendOp::PointwiseBatch { mut acc, rhs } => {
                let [x, y] = self.stage(plan, staging, [acc.as_slice(), rhs]);
                let views = [PolyView::new(x, acc.primes())];
                let op = BackendOp::Pointwise {
                    acc: &views,
                    rhs: &[y],
                };
                self.run(plan, staging, splits, op);
                self.download(x, acc.data());
            }
            BackendOp::MultiplyBatch { a, b, mut out } => {
                assert_eq!(a.len(), out.as_slice().len(), "operand shape mismatch");
                let [x, y] = self.stage(plan, staging, [a, b]);
                let views = [x, y].map(|buf| PolyView::new(buf, out.primes()));
                for op in [
                    BackendOp::Forward {
                        views: &views,
                        load: None,
                        fold: None,
                    },
                    BackendOp::Pointwise {
                        acc: &views[..1],
                        rhs: &[y],
                    },
                    BackendOp::Inverse { views: &views[..1] },
                ] {
                    self.run(plan, staging, splits, op);
                }
                self.download(x, out.data());
            }

            // ---- Device-resident execution (zero host↔device traffic) ----
            BackendOp::Forward { load, fold, .. } => {
                let plain_lift = matches!(load, Some(Load::Lift { centered, .. }) if !centered);
                assert!(
                    fold.is_none() || plain_lift,
                    "a sub-scale store folds a plain lift"
                );
                let split = self.split(splits, n);
                let dropped = fold.map(|SubScale { dropped }| dropped);
                // A load reads rows other than the one it writes: every
                // row of its view's source is gathered (the key switch's
                // digits read every residue row, a lift its one row), so
                // on a sharded device the remote source rows cross the
                // link, about (K−1)/K of them per shard.
                let level = load.map_or(0, |load| load_level(load, &written, n));
                let reads: Vec<Read<'_>> = load.iter().map(|l| (l.src(), RowMap::All)).collect();
                self.each_shard(plan, &written, &reads, |sh, l| {
                    let load = load.map(|load| LoadRows {
                        src: l.src[0].clone(),
                        map: load_map(load, level, &l.index),
                    });
                    run_forward(sh, plan, &l.dst, split, load.as_ref(), dropped)
                });
            }
            BackendOp::Inverse { .. } => {
                let split = self.split(splits, n);
                self.each_shard(plan, &written, &[], |sh, l| {
                    run_inverse(sh, plan, &l.dst, split)
                });
            }
            BackendOp::Pointwise { rhs, .. } => {
                let rhs = shaped(rhs, &written);
                self.each_shard(plan, &written, &[(&rhs, RowMap::Same)], |sh, l| {
                    launch_elemwise(sh, plan, ElemOp::Mul, &l.dst, Some(&l.src[0]))
                });
            }
            BackendOp::Fma { acc, x, y } => {
                // Multiply-accumulate chains land here: the key-switch
                // inner products (term `t` a digit sub-view at row offset
                // `t * level` of the decompose scratch, plus any folded
                // product terms) and the plaintext-product sums. Read
                // operand `2t` (`2t + 1`) is the first (second) factor of
                // every accumulator's term `t`, and each shard gathers
                // them onto the accumulator rows it owns. The cyclic
                // partition makes every digit view land on the
                // accumulator's shards whenever `level % K == 0`, and a
                // separate level-row allocation always does — the
                // zero-copy fast path of the gather — while any genuinely
                // misaligned view (e.g. `K = 3` with `level = 8`) arrives
                // over the link, correct either way. Every term of every
                // accumulator then runs as one launch per shard.
                assert_eq!(x.len(), y.len(), "fma term count mismatch");
                assert_eq!(
                    x.len() % acc.len(),
                    0,
                    "every accumulator takes as many terms"
                );
                let m = x.len() / acc.len();
                let factors: Vec<Vec<PolyView>> = (0..m)
                    .flat_map(|t| {
                        [x, y].map(|f| {
                            let term: Vec<DeviceBuf> =
                                (0..acc.len()).map(|k| f[k * m + t]).collect();
                            shaped(&term, acc)
                        })
                    })
                    .collect();
                let reads: Vec<Read<'_>> = factors.iter().map(|f| (&f[..], RowMap::Same)).collect();
                self.each_shard(plan, &written, &reads, |sh, l| {
                    launch_fma(sh, plan, &l.dst, &l.src)
                });
            }
            BackendOp::AddSub { rhs, subtract, .. } => {
                let op = if subtract { ElemOp::Sub } else { ElemOp::Add };
                let rhs = shaped(rhs, &written);
                self.each_shard(plan, &written, &[(&rhs, RowMap::Same)], |sh, l| {
                    launch_elemwise(sh, plan, op, &l.dst, Some(&l.src[0]))
                });
            }
            BackendOp::Negate { .. } => {
                self.each_shard(plan, &written, &[], |sh, l| {
                    launch_elemwise(sh, plan, ElemOp::Neg, &l.dst, None)
                });
            }
            BackendOp::Automorphism { src, g, .. } => {
                let g = g % (2 * n as u64);
                assert_eq!(g % 2, 1, "Galois element must be odd");
                // The permutation is row-local, so each dst row needs
                // exactly its own src row — aligned allocations stay
                // link-free.
                self.each_shard(plan, &written, &[(src, RowMap::Same)], |sh, l| {
                    launch_automorphism(sh, plan, &l.src[0], &l.dst, g)
                });
            }
        }
    }

    /// Run one device op with **one launch per shard**: every shard that
    /// owns rows of any `written` view gathers what those rows read,
    /// fences on every written allocation, and hands `kernel` its
    /// [`Launch`]: its written rows across all views, and per read
    /// operand the row each of them reads, as the operand's [`RowMap`]
    /// lines it up.
    fn each_shard(
        &mut self,
        plan: &RingPlan,
        written: &[PolyView],
        reads: &[Read<'_>],
        mut kernel: impl FnMut(&mut SimMemory, &Launch),
    ) {
        let n = plan.degree();
        for (s, segs) in self.by_shard(written, n).into_iter().enumerate() {
            if segs.is_empty() {
                continue;
            }
            ensure_tables(&mut self.sh[s], plan);
            let mut l = Launch {
                dst: RowTable::default(),
                src: vec![RowTable::default(); reads.len()],
                index: Vec::new(),
            };
            let (mut roots, mut gathered) = (Vec::new(), Vec::new());
            for (k, seg) in &segs {
                for (&(views, map), table) in reads.iter().zip(&mut l.src) {
                    let view = &views[*k];
                    let want = match map {
                        RowMap::Same => seg.rows,
                        RowMap::All => Rows::run(0, view.buf.len() / n),
                    };
                    let g = self.gather_rows(view.buf, want, n, s);
                    match map {
                        RowMap::Same => {
                            table.extend(g.buf, n, want.iter().map(|r| view.prime_of(r)))
                        }
                        RowMap::All => {
                            let per = written[*k].buf.len() / view.buf.len();
                            for r in seg.rows.iter() {
                                table.push(g.buf.sub(r / per * n, n), view.prime_of(r / per));
                            }
                        }
                    }
                    gathered.push(g);
                }
                let local = self.sh[s].raw_buf(seg.local);
                roots.push(self.sh[s].root_base(seg.local));
                let view = &written[*k];
                l.dst
                    .extend(local, n, seg.rows.iter().map(|r| view.prime_of(r)));
                l.index.extend(seg.rows.iter());
            }
            let sh = &mut self.sh[s];
            sh.wait_ready(&roots);
            kernel(sh, &l);
            sh.mark_written(&roots);
            for g in gathered {
                self.release_gather(s, g);
            }
        }
    }
}

impl DeviceMemory for ShardedMemory {
    fn alloc(&mut self, words: usize) -> DeviceBuf {
        self.hold().alloc(words)
    }

    fn upload(&mut self, dst: DeviceBuf, src: &[u64]) {
        self.hold().upload(dst, src);
    }

    fn download(&mut self, src: DeviceBuf, dst: &mut [u64]) {
        self.hold().download(src, dst);
    }

    fn copy(&mut self, src: DeviceBuf, dst: DeviceBuf) {
        self.hold().copy(src, dst);
    }

    fn free(&mut self, buf: DeviceBuf) {
        self.hold().free(buf);
    }

    fn stats(&self) -> TransferStats {
        // Sum over shards: each card drives its own PCIe link.
        let mut t = TransferStats::default();
        for sh in &self.shards {
            let s = lock_mem(sh).stats();
            t.uploads += s.uploads;
            t.upload_words += s.upload_words;
            t.downloads += s.downloads;
            t.download_words += s.download_words;
            t.d2d_copies += s.d2d_copies;
            t.allocs += s.allocs;
            t.frees += s.frees;
        }
        t
    }

    fn reset_stats(&mut self) {
        for sh in &self.shards {
            lock_mem(sh).reset_stats();
        }
    }

    // The injected-OOM hook: every shard the allocation touches checks
    // its projected footprint against the armed plan before anything is
    // allocated.

    fn try_alloc(&mut self, words: usize) -> Result<DeviceBuf, BackendError> {
        let mut h = self.hold();
        let rows = h.partition_rows(words);
        for s in 0..h.sh.len() {
            if let Some(share) = h.share(rows, words, s) {
                let projected = h.sh[s].gpu().gmem.allocated_words() + share;
                h.sh[s]
                    .gpu_mut()
                    .fault_check_alloc(projected)
                    .map_err(|kind| classify(kind, "alloc", share))?;
            }
        }
        Ok(h.alloc(words))
    }
}

/// Lock a shared [`ShardedMemory`], recovering from poisoning (free
/// function so callers can hold `&mut` to other backend fields across
/// the guard).
pub(crate) fn lock_sharded(mem: &Arc<Mutex<ShardedMemory>>) -> MutexGuard<'_, ShardedMemory> {
    mem.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Names one face of [`SimDevices`]: a zero-sized marker, since the
/// faces differ only in their constructors and the name they report.
pub trait Flavor: Send + 'static {
    /// What [`NttBackend::name`] reports.
    const NAME: &'static str;
}

/// The single-device face, [`crate::SimBackend`].
pub struct Single;

impl Flavor for Single {
    const NAME: &'static str = "gpu-sim";
}

/// The multi-device face, [`ShardedBackend`].
pub struct Sharded;

impl Flavor for Sharded {
    const NAME: &'static str = "gpu-sim-sharded";
}

/// The multi-device backend: `K` simulated GPUs, each owning the cyclic
/// slice `r ≡ s (mod K)` of the RNS residue rows, joined by a modeled
/// inter-device link. The swap from [`crate::SimBackend`] is the
/// constructor; see the module docs for the partition and traffic model.
pub type ShardedBackend = SimDevices<Sharded>;

/// An executor's host-batch staging: two grow-only allocations of the
/// shared memory, one per operand ([`Held::stage`]), freed with the
/// executor.
type Staging = [Option<DeviceBuf>; 2];

/// The transform split per ring degree ([`Held::split`]).
type Splits = Mutex<HashMap<usize, SmemConfig>>;

/// The simulated-GPU backend over `K` devices: shared sharded memory
/// (GMEM + handle maps + plan tables per shard), this executor's
/// compute stream on each shard and its host-batch staging, and the
/// memoized transform split per ring degree. Use it through its two
/// faces, [`crate::SimBackend`] and [`ShardedBackend`].
///
/// The root backend runs on each shard's [`Stream::DEFAULT`]; every
/// [`NttBackend::fork`] allocates its own stream per shard, so
/// concurrent evaluators from the pool enqueue on independent queues
/// and their modeled device time overlaps (subject to SM capacity).
pub struct SimDevices<F: Flavor> {
    mem: Arc<Mutex<ShardedMemory>>,
    /// This executor's compute stream on each shard (index = shard).
    streams: Vec<Stream>,
    /// This executor's host-batch staging, partitioned over the shards
    /// like every resident allocation.
    staging: Staging,
    /// Memoized per-`N` transform split (shared by forks so the sweep
    /// runs once per ring degree per backend family).
    split_cache: Arc<Splits>,
    flavor: PhantomData<F>,
}

/// The fault draws of one staged host-batch op, in issue order.
const STAGED: &[FaultOp] = &[FaultOp::Upload, FaultOp::Launch, FaultOp::Download];
/// The fault draw of one device-resident op.
const LAUNCH: &[FaultOp] = &[FaultOp::Launch];

impl<F: Flavor> SimDevices<F> {
    /// A root executor on the default streams of `mem`'s shards.
    pub(crate) fn over(mem: ShardedMemory) -> Self {
        let k = mem.shard_count();
        Self {
            mem: Arc::new(Mutex::new(mem)),
            streams: vec![Stream::DEFAULT; k],
            staging: [None; 2],
            split_cache: Arc::new(Mutex::new(HashMap::new())),
            flavor: PhantomData,
        }
    }

    /// Arm (or with `None`, disarm) a deterministic fault schedule on
    /// every shard. Affects every fork sharing this backend's memory;
    /// only [`NttBackend::gate`] and [`DeviceMemory::try_alloc`] draw
    /// from the plan. See [`gpu_sim::FaultPlan`].
    pub fn set_fault_plan(&self, plan: Option<gpu_sim::FaultPlan>) {
        for sh in &self.lock().shards {
            lock_mem(sh).gpu_mut().set_fault_plan(plan.clone());
        }
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, ShardedMemory> {
        lock_sharded(&self.mem)
    }

    /// The host↔device transfer ledger, summed over shards (see
    /// [`gpu_sim::Gmem`]).
    pub fn transfer_stats(&self) -> TransferStats {
        self.lock().stats()
    }
}

/// The views a device op writes, each under its primes: the rows its
/// dispatch walks, and so the shards it launches on. Empty for a host
/// batch, whose staged rows a device op then writes.
fn written_views(op: &BackendOp<'_>) -> Vec<PolyView> {
    match *op {
        BackendOp::Forward { views, .. }
        | BackendOp::Inverse { views }
        | BackendOp::Negate { views }
        | BackendOp::Pointwise { acc: views, .. }
        | BackendOp::AddSub { acc: views, .. }
        | BackendOp::Fma { acc: views, .. } => views.to_vec(),
        BackendOp::Automorphism { src, dst, .. } => shaped(dst, src),
        _ => Vec::new(),
    }
}

/// `bufs[k]` under the primes of `like[k]`: an operand given as one
/// buffer per view, as views.
///
/// # Panics
///
/// Panics unless there is one buffer per view, each as long as its view.
fn shaped(bufs: &[DeviceBuf], like: &[PolyView]) -> Vec<PolyView> {
    assert_eq!(bufs.len(), like.len(), "one buffer per view");
    bufs.iter()
        .zip(like)
        .map(|(&buf, view)| {
            assert_eq!(buf.len(), view.buf.len(), "operand shape mismatch");
            PolyView::new(buf, view.primes.clone())
        })
        .collect()
}

impl SimDevices<Sharded> {
    /// `shards` devices of one model, partitioning rings of `degree`.
    pub fn new(config: GpuConfig, shards: usize, degree: usize) -> Self {
        Self::over(ShardedMemory::new(config, shards, degree))
    }

    /// `shards` Titan-V-model devices for rings of `degree`.
    pub fn titan_v(shards: usize, degree: usize) -> Self {
        Self::new(GpuConfig::titan_v(), shards, degree)
    }

    /// A clone of the shared sharded-memory handle (timeline, link
    /// ledger, per-shard devices) for harness observation.
    pub fn memory_handle(&self) -> Arc<Mutex<ShardedMemory>> {
        Arc::clone(&self.mem)
    }
}

impl<F: Flavor> Drop for SimDevices<F> {
    /// Free this executor's staging and destroy its streams.
    fn drop(&mut self) {
        let mut m = lock_sharded(&self.mem);
        let mut h = m.hold();
        for buf in self.staging.into_iter().flatten() {
            h.free(buf);
        }
        for (sh, &stream) in h.sh.iter_mut().zip(&self.streams) {
            if stream != Stream::DEFAULT {
                sh.gpu_mut().destroy_stream(stream);
            }
        }
    }
}

impl<F: Flavor> NttBackend for SimDevices<F> {
    fn name(&self) -> &'static str {
        F::NAME
    }

    fn memory(&self) -> SharedDeviceMemory {
        let shared: SharedDeviceMemory = self.mem.clone();
        shared
    }

    fn fork(&self) -> Box<dyn NttBackend> {
        let m = self.lock();
        let streams: Vec<Stream> = m
            .shards
            .iter()
            .map(|sh| lock_mem(sh).gpu_mut().create_stream())
            .collect();
        Box::new(SimDevices::<F> {
            mem: Arc::clone(&self.mem),
            streams,
            staging: [None; 2],
            split_cache: Arc::clone(&self.split_cache),
            flavor: PhantomData,
        })
    }

    fn prefers_residency(&self) -> bool {
        true
    }

    fn bind_stream(&self) {
        self.lock().hold().bind(&self.streams);
    }

    /// Run `op` with every shard locked and bound to this executor's
    /// streams (`Held::run`).
    fn run(&mut self, plan: &RingPlan, op: BackendOp<'_>) {
        let mut m = lock_sharded(&self.mem);
        let mut h = m.hold();
        h.bind(&self.streams);
        h.run(plan, &mut self.staging, &self.split_cache, op);
    }

    /// Validate the op's handles, then draw the armed fault plan, in
    /// shard order, on each shard the op issues commands on
    /// (`Held::issuing`), before any data moves: injected faults fire
    /// between ops, never mid-op, so on `Err` no operand byte has moved.
    /// Each such shard draws one schedule slot per hardware command class
    /// the op issues on it (a staged host batch is upload + launch +
    /// download; a device-resident op is one launch), and a shard the op
    /// leaves idle draws nothing, so fault *rates* scale with real
    /// command traffic. A freed or foreign handle, which `run` treats as
    /// an invariant violation (a panic), comes back as a fatal error here.
    fn gate(&mut self, op: &BackendOp<'_>) -> Result<(), BackendError> {
        let label = op.label();
        let mut m = self.lock();
        if !op.handles().iter().all(|&b| m.is_live(b)) {
            return Err(BackendError::Fatal { op: label });
        }
        let mut h = m.hold();
        h.bind(&self.streams);
        let kinds = if op.is_host_batch() { STAGED } else { LAUNCH };
        let issuing = h.issuing(op);
        for (sh, _) in h.sh.iter_mut().zip(issuing).filter(|(_, i)| *i) {
            for &kind in kinds {
                sh.fault_gate(label, kind)?;
            }
        }
        Ok(())
    }
}

/// Check a load's shape against the views it writes, and return the row
/// count of its sources.
///
/// # Panics
///
/// Panics unless there is one source per view, shaped as [`Load`] says.
fn load_level(load: Load<'_>, written: &[PolyView], n: usize) -> usize {
    let src = load.src();
    assert_eq!(src.len(), written.len(), "one source per view");
    let level = src.first().map_or(0, |s| s.buf.len() / n);
    for (s, w) in src.iter().zip(written) {
        assert_eq!(s.buf.len(), level * n, "a load's sources share one level");
        match load {
            Load::Digits { digits, .. } => assert_eq!(
                w.buf.len(),
                level * digits * level * n,
                "digit buffer shape mismatch"
            ),
            Load::Lift { .. } => assert_eq!(level, 1, "a lift reads one row"),
        }
    }
    level
}

/// The [`LoadMap`] of written rows whose indices in their views are
/// `index`, for a load of `level`-row sources: the digit of a row follows
/// from its index.
fn load_map(load: Load<'_>, level: usize, index: &[usize]) -> LoadMap {
    match load {
        Load::Digits {
            digits,
            gadget_bits,
            ..
        } => LoadMap::Digits {
            shift: index
                .iter()
                .map(|&r| gadget_bits * ((r / level) % digits) as u32)
                .collect(),
            mask: (1u64 << gadget_bits) - 1,
        },
        Load::Lift { centered, .. } => LoadMap::Lift { centered },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimBackend;
    use ntt_core::backend::{BackendOp as Op, CpuBackend, Evaluator, LimbBatch};
    use ntt_core::{RnsPoly, RnsRing};

    fn ring(n: usize, np: usize) -> RnsRing {
        RnsRing::new(n, ntt_math::ntt_primes(59, 2 * n as u64, np)).unwrap()
    }

    fn sample(ring: &RnsRing, seed: i64) -> RnsPoly {
        let coeffs: Vec<i64> = (0..ring.degree() as i64)
            .map(|i| (seed.wrapping_mul(i + 3) % 97) - 48)
            .collect();
        RnsPoly::from_i64_coeffs(ring, &coeffs)
    }

    #[test]
    #[should_panic(expected = "a sub-scale store folds a plain lift")]
    fn forward_rejects_a_sub_scale_without_a_plain_lift() {
        let ring = ring(16, 2);
        let plan = RingPlan::new(&ring);
        let mut sim = SimBackend::titan_v();
        let buf = sim.memory().lock().unwrap().alloc(16);
        let src = [PolyView::new(buf, 1..2)];
        sim.run(
            &plan,
            Op::Forward {
                views: &[PolyView::new(buf, 0..1)],
                load: Some(Load::Lift {
                    src: &src,
                    centered: true,
                }),
                fold: Some(SubScale { dropped: 1 }),
            },
        );
    }

    #[test]
    fn cyclic_partition_covers_every_row_once() {
        for rows in [1, 2, 3, 5, 8, 12] {
            for k in [1, 2, 3, 4, 8] {
                // Walking rows in order assigns each to shard r % k at
                // the next free local index — r / k by construction.
                let mut local = vec![0usize; k];
                for r in 0..rows {
                    let s = r % k;
                    assert_eq!(r / k, local[s], "local rows count up densely");
                    local[s] += 1;
                }
                assert_eq!(local.iter().sum::<usize>(), rows, "total");
                for (s, &got) in local.iter().enumerate() {
                    assert_eq!(got, rows_on_shard(rows, k, s), "per-shard row count");
                }
            }
        }
    }

    #[test]
    fn sharded_matches_sim_on_every_trait_op() {
        let ring = ring(32, 3);
        let plan = RingPlan::new(&ring);
        let a = sample(&ring, 5);
        let b = sample(&ring, 11);

        for k in [1, 2, 3] {
            let mut sim = SimBackend::titan_v();
            let mut sharded = ShardedBackend::titan_v(k, 32);

            let (mut fs, mut fk) = (a.clone(), a.clone());
            sim.run(&plan, Op::ForwardBatch(LimbBatch::from_poly(&mut fs)));
            sharded.run(&plan, Op::ForwardBatch(LimbBatch::from_poly(&mut fk)));
            assert_eq!(fs.flat(), fk.flat(), "forward k={k}");

            let (mut ps, mut pk) = (fs.clone(), fk.clone());
            sim.run(
                &plan,
                Op::PointwiseBatch {
                    acc: LimbBatch::from_poly(&mut ps),
                    rhs: fs.flat(),
                },
            );
            sharded.run(
                &plan,
                Op::PointwiseBatch {
                    acc: LimbBatch::from_poly(&mut pk),
                    rhs: fk.flat(),
                },
            );
            assert_eq!(ps.flat(), pk.flat(), "pointwise k={k}");

            sim.run(&plan, Op::InverseBatch(LimbBatch::from_poly(&mut ps)));
            sharded.run(&plan, Op::InverseBatch(LimbBatch::from_poly(&mut pk)));
            assert_eq!(ps.flat(), pk.flat(), "inverse k={k}");

            let (mut ms, mut mk) = (RnsPoly::zero(&ring), RnsPoly::zero(&ring));
            sim.run(
                &plan,
                Op::MultiplyBatch {
                    a: a.flat(),
                    b: b.flat(),
                    out: LimbBatch::from_poly(&mut ms),
                },
            );
            sharded.run(
                &plan,
                Op::MultiplyBatch {
                    a: a.flat(),
                    b: b.flat(),
                    out: LimbBatch::from_poly(&mut mk),
                },
            );
            assert_eq!(ms.flat(), mk.flat(), "multiply k={k}");
        }
    }

    #[test]
    fn sharded_evaluator_matches_cpu_resident_chain() {
        let ring = ring(16, 3);
        let a = sample(&ring, 7);
        let b = sample(&ring, 13);
        let mut cpu = Evaluator::cpu(&ring);
        let want = cpu.multiply(&a, &b);
        for k in [1, 2, 4] {
            let mut ev = Evaluator::with_backend(&ring, Box::new(ShardedBackend::titan_v(k, 16)));
            assert_eq!(ev.backend_name(), "gpu-sim-sharded");
            let (mut ra, mut rb) = (a.clone(), b.clone());
            ev.make_resident(&mut ra);
            ev.make_resident(&mut rb);
            let mut got = ev.multiply(&ra, &rb);
            got.sync();
            assert_eq!(want.flat(), got.flat(), "resident multiply k={k}");
        }
    }

    #[test]
    fn upload_download_roundtrip_across_shards() {
        let mut m = ShardedMemory::new(GpuConfig::titan_v(), 3, 8);
        // Row-shaped: 5 rows of 8 words over 3 shards.
        let buf = m.alloc(40);
        let data: Vec<u64> = (0..40).collect();
        m.upload(buf, &data);
        let mut back = vec![0u64; 40];
        m.download(buf, &mut back);
        assert_eq!(data, back);
        // Sub-view crossing a shard boundary.
        let mut mid = vec![0u64; 16];
        m.download(buf.sub(12, 16), &mut mid);
        assert_eq!(&data[12..28], &mid[..]);
        // Not row-shaped: lands whole on shard 0.
        let odd = m.alloc(13);
        let odd_data: Vec<u64> = (100..113).collect();
        m.upload(odd, &odd_data);
        let mut odd_back = vec![0u64; 13];
        m.download(odd, &mut odd_back);
        assert_eq!(odd_data, odd_back);
        m.free(buf);
        m.free(odd);
    }

    #[test]
    fn cross_shard_copy_pays_link_traffic() {
        let mut m = ShardedMemory::new(GpuConfig::titan_v(), 2, 8);
        let src = m.alloc(16); // row 0 on shard 0, row 1 on shard 1
        let dst = m.alloc(16);
        let data: Vec<u64> = (0..16).collect();
        m.upload(src, &data);
        let t0 = m.link_stats();
        // Aligned copy: both partitions match, no link traffic.
        m.copy(src, dst);
        assert_eq!(m.link_stats().since(&t0).words, 0, "aligned copy is local");
        let mut back = vec![0u64; 16];
        m.download(dst, &mut back);
        assert_eq!(data, back);
        // Misaligned copy: shard-1 row of src into the front (shard-0)
        // row of a fresh view crosses the link.
        let t1 = m.link_stats();
        m.copy(src.sub(8, 8), dst.sub(0, 8));
        assert_eq!(m.link_stats().since(&t1).words, 8, "row crossed the link");
        m.download(dst.sub(0, 8), &mut back[..8]);
        assert_eq!(&data[8..], &back[..8]);
    }

    #[test]
    fn decompose_all_gather_crosses_the_link_only_when_sharded() {
        // Drive the key-switch digit shape directly: a forward that
        // loads the digits of a level × N source into the
        // level·digits·level digit rows, the op that carries the
        // base-conversion traffic.
        let ring = ring(16, 4);
        let plan = RingPlan::new(&ring);
        let (n, level, digits, gadget_bits) = (16usize, 4usize, 2usize, 30u32);
        let src_host: Vec<u64> = (0..(level * n) as u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9) % (1 << 59))
            .collect();
        let digit_rows = level * digits * level;

        let decompose = |backend: &mut dyn NttBackend| -> Vec<u64> {
            let mem = backend.memory();
            let mut mem = mem.lock().unwrap();
            let src = mem.alloc(level * n);
            let dst = mem.alloc(digit_rows * n);
            mem.upload(src, &src_host);
            drop(mem);
            backend.run(
                &plan,
                Op::Forward {
                    views: &[PolyView::new(dst, 0..level)],
                    load: Some(Load::Digits {
                        src: &[PolyView::new(src, 0..level)],
                        digits,
                        gadget_bits,
                    }),
                    fold: None,
                },
            );
            let mut out = vec![0u64; digit_rows * n];
            let mem = backend.memory();
            let mut mem = mem.lock().unwrap();
            mem.download(dst, &mut out);
            mem.free(src);
            mem.free(dst);
            out
        };

        let mut sim = SimBackend::titan_v();
        let want = decompose(&mut sim);
        for (k, expect_link) in [(1usize, false), (2, true), (4, true)] {
            let mut sharded = ShardedBackend::titan_v(k, 16);
            let handle = sharded.memory_handle();
            let got = decompose(&mut sharded);
            assert_eq!(want, got, "decompose k={k}");
            let link = lock_sharded(&handle).link_stats();
            if expect_link {
                assert!(link.words > 0, "k={k} must all-gather over the link");
            } else {
                assert_eq!(link.words, 0, "k=1 has no link to cross");
            }
        }
    }

    #[test]
    fn misaligned_fma_digit_view_matches_sim() {
        // acc is a level-row poly and each term pairs an x view with its
        // own key. The x views come in two layouts: the `m` stacked digit
        // polys one digit into an (m + 1)-digit scratch, or `m` separate
        // allocations, the first of them one row into a (level + 1)-row
        // buffer. level = 5 is a multiple of neither K = 2 nor K = 3, so
        // the stacked views and the offset view cannot line up with acc
        // for K > 1 and every sharded run exercises the gather fallback.
        // Both layouts hold the same words, so they must agree; Cpu is
        // the reference, for one term, two, and a whole level·digits key
        // switch.
        let ring = ring(16, 5);
        let plan = RingPlan::new(&ring);
        let (n, level, digits) = (16usize, 5usize, 2usize);
        let poly = level * n;
        let host = |words: usize, mul: u64, m: u64| -> Vec<u64> {
            (0..words as u64).map(|i| (i * mul) % m).collect()
        };

        let run = |backend: &mut dyn NttBackend, m: usize, stacked: bool| -> Vec<u64> {
            let mem = backend.memory();
            let mut mem = mem.lock().unwrap();
            let acc = mem.alloc(poly);
            let (allocs, x): (Vec<DeviceBuf>, Vec<DeviceBuf>) = if stacked {
                let stack = mem.alloc((m + 1) * poly);
                let views = (0..m).map(|k| stack.sub((k + 1) * poly, poly)).collect();
                (vec![stack], views)
            } else {
                let offset = mem.alloc(poly + n);
                let rest: Vec<DeviceBuf> = (1..m).map(|_| mem.alloc(poly)).collect();
                let views = std::iter::once(offset.sub(n, poly)).chain(rest.iter().copied());
                let views = views.collect();
                (std::iter::once(offset).chain(rest).collect(), views)
            };
            let ys: Vec<DeviceBuf> = (0..m).map(|_| mem.alloc(poly)).collect();
            mem.upload(acc, &host(poly, 1, 97));
            let words = host((m + 1) * poly, 7, 89);
            for (k, &xk) in x.iter().enumerate() {
                mem.upload(xk, &words[(k + 1) * poly..(k + 2) * poly]);
            }
            for (k, &y) in ys.iter().enumerate() {
                mem.upload(y, &host(poly, 13 + k as u64, 83));
            }
            drop(mem);
            let op = Op::Fma {
                acc: &[PolyView::new(acc, 0..level)],
                x: &x,
                y: &ys,
            };
            backend.run(&plan, op);
            let mut out = vec![0u64; poly];
            let mem = backend.memory();
            let mut mem = mem.lock().unwrap();
            mem.download(acc, &mut out);
            for b in [acc].into_iter().chain(allocs).chain(ys) {
                mem.free(b);
            }
            out
        };

        for m in [1, 2, level * digits] {
            let want = run(&mut CpuBackend::default(), m, true);
            let separate = run(&mut CpuBackend::default(), m, false);
            assert_eq!(want, separate, "m={m}: the two layouts hold the same terms");
            for (k, stacked) in [1usize, 2, 3]
                .into_iter()
                .flat_map(|k| [(k, true), (k, false)])
            {
                let (mut be, handle): (Box<dyn NttBackend>, _) = if k == 1 {
                    let sim = SimBackend::titan_v();
                    let handle = Arc::clone(&sim.mem);
                    (Box::new(sim), handle)
                } else {
                    let sharded = ShardedBackend::titan_v(k, 16);
                    let handle = sharded.memory_handle();
                    (Box::new(sharded), handle)
                };
                let ctx = format!("misaligned fma m={m} k={k} stacked={stacked}");
                assert_eq!(want, run(&mut *be, m, stacked), "{ctx}");
                let link = lock_sharded(&handle).link_stats();
                if k == 1 {
                    assert_eq!(link.words, 0, "{ctx}: k=1 has no link to cross");
                } else {
                    assert!(link.words > 0, "{ctx}: must gather over the link");
                }
            }
        }
    }

    /// Ring degree of the op table below.
    const N: usize = 16;

    /// The op table's operands, one allocation each: level-2 polys `a`,
    /// `b`, `c`, a one-row `row`, the 8-row digit buffer of a 2-digit
    /// decomposition, two more level-2 polys `x0`, `x1` and a second
    /// one-row `acc`.
    const ROWS: [usize; 8] = [2, 2, 2, 1, 8, 2, 2, 1];

    /// Per device op of the table ([`device_op`]), the operands it
    /// touches, in field order.
    const USES: [&[usize]; 11] = [
        &[0],
        &[0],
        &[0, 1],
        &[0, 5, 6, 1, 2],
        &[0, 1],
        &[0],
        &[0, 3],
        &[4, 0],
        &[0, 3],
        &[0, 1],
        &[7, 3],
    ];

    /// The views the device ops take: `a` whole, `row` under prime 1 and
    /// under prime 0, `x0`, `x1` and the digit buffer whole, and `acc`.
    fn views_of(bufs: &[DeviceBuf; 8]) -> [PolyView; 7] {
        let [a, _, _, row, digits, x0, x1, acc] = *bufs;
        [
            PolyView::new(a, 0..2),
            PolyView::new(row, 1..2),
            PolyView::new(row, 0..1),
            PolyView::new(x0, 0..2),
            PolyView::new(x1, 0..2),
            PolyView::new(digits, 0..2),
            PolyView::new(acc, 0..1),
        ]
    }

    /// Device op `i` of the table, over the operands of [`ROWS`]: every
    /// device op once and the forward with each of its folds. The FMA is
    /// 2-term — `a += x0 · b + x1 · c`, each first factor its own buffer.
    /// Two forwards load the lift of `row` into `a`, plainly from prime 1
    /// (a rescale's dropped row) and centered from prime 0 (a mod-raise),
    /// one loads the digits of `a`, and the last loads the plain lift of
    /// `row` and stores the rescale's subtract-and-scale into `acc`.
    fn device_op<'a>(i: usize, bufs: &'a [DeviceBuf; 8], views: &'a [PolyView; 7]) -> Op<'a> {
        match i {
            0 => Op::Forward {
                views: &views[..1],
                load: None,
                fold: None,
            },
            1 => Op::Inverse { views: &views[..1] },
            2 => Op::Pointwise {
                acc: &views[..1],
                rhs: &bufs[1..2],
            },
            3 => Op::Fma {
                acc: &views[..1],
                x: &bufs[5..7],
                y: &bufs[1..3],
            },
            4 => Op::AddSub {
                acc: &views[..1],
                rhs: &bufs[1..2],
                subtract: true,
            },
            5 => Op::Negate { views: &views[..1] },
            6 => Op::Forward {
                views: &views[..1],
                load: Some(Load::Lift {
                    src: &views[1..2],
                    centered: false,
                }),
                fold: None,
            },
            7 => Op::Forward {
                views: &views[5..6],
                load: Some(Load::Digits {
                    src: &views[..1],
                    digits: 2,
                    gadget_bits: 20,
                }),
                fold: None,
            },
            8 => Op::Forward {
                views: &views[..1],
                load: Some(Load::Lift {
                    src: &views[2..3],
                    centered: true,
                }),
                fold: None,
            },
            9 => Op::Automorphism {
                src: &views[..1],
                dst: &bufs[1..2],
                g: 3,
            },
            _ => Op::Forward {
                views: &views[6..],
                load: Some(Load::Lift {
                    src: &views[1..2],
                    centered: false,
                }),
                fold: Some(SubScale { dropped: 1 }),
            },
        }
    }

    /// Host batch `i` over two stacked level-2 polys.
    fn host_op<'a>(i: usize, io: &'a mut [u64], rhs: &'a [u64]) -> Op<'a> {
        let io = LimbBatch::new(io, N, 2);
        match i {
            0 => Op::ForwardBatch(io),
            1 => Op::InverseBatch(io),
            2 => Op::PointwiseBatch { acc: io, rhs },
            _ => Op::MultiplyBatch {
                a: rhs,
                b: rhs,
                out: io,
            },
        }
    }

    /// `words` residues below every test prime, one stream per `seed`.
    fn residues(words: usize, seed: usize) -> Vec<u64> {
        let mix = |i: usize| ((i + 64 * seed) as u64).wrapping_mul(0x9e37_79b9);
        (0..words).map(|i| mix(i) % (1 << 40)).collect()
    }

    /// The operands of [`ROWS`], allocated on `be` and filled, one seed
    /// per operand.
    fn fresh(be: &dyn NttBackend) -> [DeviceBuf; 8] {
        let mem = be.memory();
        let mut mem = mem.lock().unwrap();
        let mut seed = 0;
        ROWS.map(|rows| {
            let buf = mem.alloc(rows * N);
            seed += 1;
            mem.upload(buf, &residues(buf.len(), seed));
            buf
        })
    }

    /// The words of each of `bufs`.
    fn read(be: &dyn NttBackend, bufs: &[DeviceBuf]) -> Vec<Vec<u64>> {
        let mem = be.memory();
        let mut mem = mem.lock().unwrap();
        let mut out: Vec<Vec<u64>> = bufs.iter().map(|b| vec![0; b.len()]).collect();
        for (&b, v) in bufs.iter().zip(&mut out) {
            mem.download(b, v);
        }
        out
    }

    /// Arm `plan` on every shard of `mem` (`None` disarms).
    fn arm(mem: &Arc<Mutex<ShardedMemory>>, plan: Option<gpu_sim::FaultPlan>) {
        for sh in &lock_sharded(mem).shards {
            lock_mem(sh).gpu_mut().set_fault_plan(plan.clone());
        }
    }

    /// Each shard's draws since its plan was armed.
    fn draws(mem: &Arc<Mutex<ShardedMemory>>) -> Vec<u64> {
        let m = lock_sharded(mem);
        let seen = |sh| lock_mem(sh).gpu().fault_plan().map(|p| p.ops_seen());
        m.shards.iter().map(|sh| seen(sh).unwrap_or(0)).collect()
    }

    /// Each shard's launches so far.
    fn launches(mem: &Arc<Mutex<ShardedMemory>>) -> Vec<u64> {
        let m = lock_sharded(mem);
        m.shard_timelines().iter().map(|t| t.launches).collect()
    }

    /// Each shard's launches, uploads and downloads so far.
    fn commands(mem: &Arc<Mutex<ShardedMemory>>) -> Vec<[u64; 3]> {
        let m = lock_sharded(mem);
        let issued = |sh: &Arc<Mutex<SimMemory>>| {
            let sh = lock_mem(sh);
            let t = sh.stats();
            [sh.gpu().timeline().launches, t.uploads, t.downloads]
        };
        m.shards.iter().map(issued).collect()
    }

    /// `SimBackend` at `k = 0`, else `ShardedBackend` over `k` devices of
    /// `n`-point rings, with its shared memory.
    fn subject(k: usize, n: usize) -> (Box<dyn NttBackend>, Arc<Mutex<ShardedMemory>>) {
        if k == 0 {
            let sim = SimBackend::titan_v();
            let mem = Arc::clone(&sim.mem);
            (Box::new(sim), mem)
        } else {
            let sharded = ShardedBackend::titan_v(k, n);
            let mem = sharded.memory_handle();
            (Box::new(sharded), mem)
        }
    }

    #[test]
    fn foreign_handle_is_fatal_on_the_fallible_surface() {
        let ring = ring(N, 2);
        let plan = RingPlan::new(&ring);
        let mut sharded = ShardedBackend::titan_v(2, N);
        let mut other = ShardedMemory::new(GpuConfig::titan_v(), 2, N);
        let foreign = other.alloc(32);
        let views = [PolyView::new(foreign, 0..2)];
        let err = sharded
            .try_run(
                &plan,
                Op::Forward {
                    views: &views,
                    load: None,
                    fold: None,
                },
            )
            .expect_err("foreign handle must not resolve");
        assert!(
            matches!(err, BackendError::Fatal { op: "dev_forward" }),
            "got {err:?}"
        );

        // The same contract for every op of the table, on Cpu, Sim and
        // Sharded at K = 2: a freed operand is Fatal under the op's label
        // and moves no byte; with no plan armed `try_run` computes what
        // `run` does; under a zero-rate plan one call draws upload, launch
        // and download (host batch, two rows per shard) or one launch
        // (device op) on each shard it issues commands on — the folded
        // forward into the one-row `acc` launches on shard 0 only.
        let none = [DeviceBuf::root(0, 0); 8];
        let none_views = views_of(&none);
        let labels: Vec<&str> = (0..4)
            .map(|i| host_op(i, &mut [], &[]).label())
            .chain((0..11).map(|i| device_op(i, &none, &none_views).label()))
            .collect();
        assert_eq!(
            labels.join(" "),
            "forward_batch inverse_batch pointwise_batch multiply_batch dev_forward \
             dev_inverse dev_pointwise dev_fma dev_addsub dev_negate dev_forward \
             dev_forward dev_forward dev_automorphism dev_forward"
        );

        let sim = SimBackend::titan_v();
        let sharded = ShardedBackend::titan_v(2, N);
        let (sim_mem, sharded_mem) = (Arc::clone(&sim.mem), Arc::clone(&sharded.mem));
        type Shards = Option<Arc<Mutex<ShardedMemory>>>;
        let subjects: [(Box<dyn NttBackend>, Shards); 3] = [
            (Box::new(CpuBackend::default()), None),
            (Box::new(sim), Some(sim_mem)),
            (Box::new(sharded), Some(sharded_mem)),
        ];
        for (mut be, shards) in subjects {
            for (i, uses) in USES.iter().enumerate() {
                let ctx = format!(
                    "{} #{i} on {}",
                    device_op(i, &none, &none_views).label(),
                    be.name()
                );
                assert!(!device_op(i, &none, &none_views).is_host_batch(), "{ctx}");
                // Free each operand in turn.
                for &freed in *uses {
                    let bufs = fresh(&*be);
                    let views = views_of(&bufs);
                    let op = device_op(i, &bufs, &views);
                    let touched: Vec<DeviceBuf> = uses.iter().map(|&j| bufs[j]).collect();
                    assert_eq!(op.handles(), touched, "{ctx}: handles");
                    be.memory().lock().unwrap().free(bufs[freed]);
                    let live: Vec<DeviceBuf> =
                        touched.into_iter().filter(|&b| b != bufs[freed]).collect();
                    let before = read(&*be, &live);
                    let want = BackendError::Fatal { op: op.label() };
                    assert_eq!(be.try_run(&plan, op).expect_err(&ctx), want, "{ctx}");
                    assert_eq!(read(&*be, &live), before, "{ctx}: operands moved");
                }
                let (x, y) = (fresh(&*be), fresh(&*be));
                let (vx, vy) = (views_of(&x), views_of(&y));
                be.run(&plan, device_op(i, &x, &vx));
                be.try_run(&plan, device_op(i, &y, &vy)).expect(&ctx);
                assert_eq!(read(&*be, &x), read(&*be, &y), "{ctx}: try_run bits");
                if let Some(mem) = &shards {
                    arm(mem, Some(gpu_sim::FaultPlan::seeded(7)));
                    let before = launches(mem);
                    be.try_run(&plan, device_op(i, &x, &vx)).expect(&ctx);
                    let issued: Vec<u64> = (launches(mem).into_iter().zip(before))
                        .map(|(a, b)| u64::from(a > b))
                        .collect();
                    assert_eq!(draws(mem), issued, "{ctx}: draws");
                    arm(mem, None);
                }
            }
            for i in 0..4 {
                let ctx = format!("{} on {}", host_op(i, &mut [], &[]).label(), be.name());
                assert!(host_op(i, &mut [], &[]).is_host_batch(), "{ctx}");
                assert!(host_op(i, &mut [], &[]).handles().is_empty(), "{ctx}");
                let rhs = residues(4 * N, 1);
                let (mut x, mut y) = (residues(4 * N, 0), residues(4 * N, 0));
                be.run(&plan, host_op(i, &mut x, &rhs));
                be.try_run(&plan, host_op(i, &mut y, &rhs)).expect(&ctx);
                assert_eq!(x, y, "{ctx}: try_run bits");
                if let Some(mem) = &shards {
                    arm(mem, Some(gpu_sim::FaultPlan::seeded(7)));
                    be.try_run(&plan, host_op(i, &mut y, &rhs)).expect(&ctx);
                    assert!(
                        draws(mem).iter().all(|&d| d == 3),
                        "{ctx}: {:?}",
                        draws(mem)
                    );
                    arm(mem, None);
                }
            }
        }
    }

    /// Every device op of the table, on Sim and on Sharded K = 1, 2, 3,
    /// computes `CpuBackend`'s bits with pinned launches per shard and
    /// link traffic; so does a misaligned product (`rhs` one row into the
    /// digit buffer, so at K = 2 and 3 each row it reads lives on another
    /// shard than the row it writes). Each element-wise op, the FMA and
    /// the automorphism over two views (`x0` and `x1`) are one launch per
    /// shard as well, moving the link words of two one-view calls: none
    /// for aligned views, and twice the misaligned product's.
    #[test]
    fn every_device_op_pins_launches_and_link_traffic_per_shard() {
        let ring = ring(N, 2);
        let plan = RingPlan::new(&ring);
        fn op<'a>(
            i: usize,
            bufs: &'a [DeviceBuf; 8],
            views: &'a [PolyView; 7],
            skew: &'a [DeviceBuf; 2],
        ) -> Op<'a> {
            let (two, rhs) = (&views[3..5], &bufs[1..3]);
            match i {
                11 => Op::Pointwise {
                    acc: &views[..1],
                    rhs: &skew[..1],
                },
                12 => Op::Pointwise { acc: two, rhs },
                // x0 += b · a, x1 += c · b.
                13 => Op::Fma {
                    acc: two,
                    x: rhs,
                    y: &bufs[..2],
                },
                14 => Op::AddSub {
                    acc: two,
                    rhs,
                    subtract: false,
                },
                15 => Op::Negate { views: two },
                16 => Op::Automorphism {
                    src: two,
                    dst: rhs,
                    g: 5,
                },
                17 => Op::Pointwise {
                    acc: two,
                    rhs: skew,
                },
                _ => device_op(i, bufs, views),
            }
        }
        // Rows 1-2 and 5-6 of the digit buffer, each as a level-2 view.
        let skew = |bufs: &[DeviceBuf; 8]| [bufs[4].sub(N, 2 * N), bufs[4].sub(5 * N, 2 * N)];
        // Per op: launches per shard and link transfers/words on Sim,
        // then on Sharded K = 1, 2, 3.
        const WANT: [&str; 18] = [
            "dev_forward: [1] 0/0 [1] 0/0 [1, 1] 0/0 [1, 1, 0] 0/0",
            "dev_inverse: [1] 0/0 [1] 0/0 [1, 1] 0/0 [1, 1, 0] 0/0",
            "dev_pointwise: [1] 0/0 [1] 0/0 [1, 1] 0/0 [1, 1, 0] 0/0",
            "dev_fma: [1] 0/0 [1] 0/0 [1, 1] 0/0 [1, 1, 0] 0/0",
            "dev_addsub: [1] 0/0 [1] 0/0 [1, 1] 0/0 [1, 1, 0] 0/0",
            "dev_negate: [1] 0/0 [1] 0/0 [1, 1] 0/0 [1, 1, 0] 0/0",
            "dev_forward: [1] 0/0 [1] 0/0 [1, 1] 1/16 [1, 1, 0] 1/16",
            "dev_forward: [1] 0/0 [1] 0/0 [1, 1] 2/32 [1, 1, 1] 4/64",
            "dev_forward: [1] 0/0 [1] 0/0 [1, 1] 1/16 [1, 1, 0] 1/16",
            "dev_automorphism: [1] 0/0 [1] 0/0 [1, 1] 0/0 [1, 1, 0] 0/0",
            "dev_forward: [1] 0/0 [1] 0/0 [1, 0] 0/0 [1, 0, 0] 0/0",
            "dev_pointwise: [1] 0/0 [1] 0/0 [1, 1] 2/32 [1, 1, 0] 2/32",
            "dev_pointwise: [1] 0/0 [1] 0/0 [1, 1] 0/0 [1, 1, 0] 0/0",
            "dev_fma: [1] 0/0 [1] 0/0 [1, 1] 0/0 [1, 1, 0] 0/0",
            "dev_addsub: [1] 0/0 [1] 0/0 [1, 1] 0/0 [1, 1, 0] 0/0",
            "dev_negate: [1] 0/0 [1] 0/0 [1, 1] 0/0 [1, 1, 0] 0/0",
            "dev_automorphism: [1] 0/0 [1] 0/0 [1, 1] 0/0 [1, 1, 0] 0/0",
            "dev_pointwise: [1] 0/0 [1] 0/0 [1, 1] 4/64 [1, 1, 0] 4/64",
        ];
        for (i, want_line) in WANT.iter().enumerate() {
            let mut cpu = CpuBackend::default();
            let bufs = fresh(&cpu);
            let (views, skewed) = (views_of(&bufs), skew(&bufs));
            cpu.run(&plan, op(i, &bufs, &views, &skewed));
            let want = read(&cpu, &bufs);
            let mut line = format!("{}:", op(i, &bufs, &views, &skewed).label());
            for k in 0..4 {
                let (mut be, mem) = subject(k, N);
                let bufs = fresh(&*be);
                let (views, skewed) = (views_of(&bufs), skew(&bufs));
                let (l0, t0) = (launches(&mem), lock_sharded(&mem).link_stats());
                be.run(&plan, op(i, &bufs, &views, &skewed));
                assert_eq!(
                    read(&*be, &bufs),
                    want,
                    "#{i} on subject {k} (0 = Sim): bits"
                );
                let l: Vec<u64> = launches(&mem).iter().zip(l0).map(|(a, b)| a - b).collect();
                let t = lock_sharded(&mem).link_stats().since(&t0);
                line += &format!(" {l:?} {}/{}", t.transfers, t.words);
            }
            assert_eq!(line, *want_line, "#{i}");
        }
    }

    /// Under a zero-rate plan each shard draws one slot per command it
    /// issues and none where it issues nothing. At K = 3 a deep rescale's
    /// inverse of the two dropped rows launches on the one shard that
    /// owns them, and a one-row host batch stages on shard 0, which owns
    /// row 0 of its staging.
    #[test]
    fn fault_draws_match_the_commands_each_shard_issues() {
        // Deep parameters: 21 primes of 50 bits, here at N = 64.
        let n = 64;
        let ring = RnsRing::new(n, ntt_math::ntt_primes(50, 2 * n as u64, 21)).unwrap();
        let plan = RingPlan::new(&ring);
        // Commands issued per shard since `before`.
        let since = |mem: &Arc<Mutex<ShardedMemory>>, before: &[[u64; 3]]| -> Vec<u64> {
            let total = |c: &[u64; 3]| c.iter().sum::<u64>();
            let now = commands(mem);
            now.iter()
                .zip(before)
                .map(|(a, b)| total(a) - total(b))
                .collect()
        };

        let sharded = ShardedBackend::titan_v(3, n);
        let mem = sharded.memory_handle();
        let mut ev = Evaluator::with_backend(&ring, Box::new(sharded));
        let (mut c0, mut c1) = (sample(&ring, 3), sample(&ring, 5));
        for c in [&mut c0, &mut c1] {
            ev.make_resident(c);
            ev.to_evaluation(c);
        }
        // The first rescale uploads the plan tables and grows scratch.
        ev.rescale_polys(&mut [&mut c0, &mut c1]);
        arm(&mem, Some(gpu_sim::FaultPlan::seeded(7)));
        let before = commands(&mem);
        ev.gated(|ev| ev.rescale_polys(&mut [&mut c0, &mut c1]))
            .expect("a zero-rate plan never faults");
        let issued = since(&mem, &before);
        assert_eq!(issued, [1, 2, 1], "level 20 -> 19 drops row 19, on shard 1");
        assert_eq!(draws(&mem), issued, "rescale draws");
        arm(&mem, None);

        let mut be = ShardedBackend::titan_v(3, n);
        let mem = be.memory_handle();
        let mut row = sample(&ring, 7).flat()[..n].to_vec();
        be.run(&plan, Op::ForwardBatch(LimbBatch::new(&mut row, n, 1)));
        arm(&mem, Some(gpu_sim::FaultPlan::seeded(7)));
        let before = commands(&mem);
        be.try_run(&plan, Op::ForwardBatch(LimbBatch::new(&mut row, n, 1)))
            .expect("a zero-rate plan never faults");
        let issued = since(&mem, &before);
        assert_eq!(issued, [3, 0, 0], "one row stages on shard 0");
        assert_eq!(draws(&mem), issued, "host batch draws");
    }

    /// A resident multiply is a forward of both operands' copies in one
    /// op, a pointwise product and an inverse: 3 launches on every shard
    /// that owns rows, and a host co-operand crosses the bus once, its
    /// own words, before any of them.
    #[test]
    fn resident_multiply_is_three_launches_per_shard() {
        let ring = ring(16, 3);
        let (a, b) = (sample(&ring, 3), sample(&ring, 5));
        let want = Evaluator::cpu(&ring).multiply(&a, &b);
        for k in [1, 2, 3] {
            let backend = ShardedBackend::titan_v(k, 16);
            let mem = backend.memory_handle();
            let mut ev = Evaluator::with_backend(&ring, Box::new(backend));
            let mut ra = a.clone();
            ev.make_resident(&mut ra);
            // Upload the plan tables first.
            ev.to_evaluation(&mut ra);
            ev.to_coefficient(&mut ra);
            let (l0, t0) = (launches(&mem), ev.transfer_stats());
            let mut got = ev.multiply(&ra, &b);
            let l: Vec<u64> = launches(&mem).iter().zip(l0).map(|(a, b)| a - b).collect();
            assert_eq!(l, vec![3; k], "k = {k}: launches per shard");
            let t = ev.transfer_stats().since(&t0);
            assert_eq!((t.upload_words, t.downloads), (3 * 16, 0), "k = {k}");
            got.sync();
            assert_eq!(got, want, "k = {k}: bits");
        }
    }

    /// A staged multiply is the resident one over its two staged
    /// operands: on every shard its rows land on, 2 uploads, 3 launches
    /// (a forward of both operands in one op, a pointwise product and an
    /// inverse) and 1 download, with `CpuBackend`'s bits. The two rows
    /// leave shard 2 of K = 3 idle.
    #[test]
    fn staged_multiply_is_three_launches_per_shard() {
        let ring = ring(N, 2);
        let plan = RingPlan::new(&ring);
        let (a, b) = (residues(2 * N, 3), residues(2 * N, 5));
        let multiply = |be: &mut dyn NttBackend| {
            let mut out = vec![0; 2 * N];
            let op = Op::MultiplyBatch {
                a: &a,
                b: &b,
                out: LimbBatch::new(&mut out, N, 2),
            };
            be.run(&plan, op);
            out
        };
        let want = multiply(&mut CpuBackend::default());
        for k in 1..=3 {
            let (mut be, mem) = subject(k, N);
            // The first call uploads the plan tables.
            multiply(&mut *be);
            let before = commands(&mem);
            assert_eq!(multiply(&mut *be), want, "K = {k}: bits");
            let issued: Vec<[u64; 3]> = commands(&mem)
                .iter()
                .zip(&before)
                .map(|(a, b)| [0, 1, 2].map(|i| a[i] - b[i]))
                .collect();
            let expect: Vec<[u64; 3]> = (0..k)
                .map(|s| if s < 2 { [3, 2, 1] } else { [0; 3] })
                .collect();
            assert_eq!(issued, expect, "K = {k}: launches, uploads, downloads");
        }
    }

    /// A fork's staging goes with it: five cycles of fork, forward,
    /// pointwise and multiply host batches and drop leave every shard's
    /// allocated words where the first cycle left them, with as many
    /// frees as allocations in each cycle, on Sim and on Sharded K = 2
    /// and 3.
    #[test]
    fn dropped_forks_free_their_staging() {
        let ring = ring(N, 3);
        let plan = RingPlan::new(&ring);
        let rhs = residues(3 * N, 1);
        let batches = |be: &mut dyn NttBackend| {
            let mut x = residues(3 * N, 0);
            be.run(&plan, Op::ForwardBatch(LimbBatch::new(&mut x, N, 3)));
            let acc = LimbBatch::new(&mut x, N, 3);
            be.run(&plan, Op::PointwiseBatch { acc, rhs: &rhs });
            let mut out = vec![0; 3 * N];
            let out = LimbBatch::new(&mut out, N, 3);
            be.run(
                &plan,
                Op::MultiplyBatch {
                    a: &x,
                    b: &rhs,
                    out,
                },
            );
        };
        for k in [0, 2, 3] {
            let (mut root, mem) = subject(k, N);
            // Each shard's allocated words, allocations and frees.
            let ledger = || -> Vec<[u64; 3]> {
                let m = lock_sharded(&mem);
                let read = |sh: &Arc<Mutex<SimMemory>>| {
                    let sh = lock_mem(sh);
                    let t = sh.stats();
                    [sh.gpu().gmem.allocated_words() as u64, t.allocs, t.frees]
                };
                m.shards.iter().map(read).collect()
            };
            // The root uploads the plan tables.
            batches(&mut *root);
            let mut first = None;
            for cycle in 0..5 {
                let before = ledger();
                let mut fork = root.fork();
                batches(&mut *fork);
                drop(fork);
                let after = ledger();
                let ctx = format!("k = {k} (0 = Sim), cycle {cycle}");
                let words: Vec<u64> = after.iter().map(|l| l[0]).collect();
                assert_eq!(first.get_or_insert(words.clone()), &words, "{ctx}: words");
                for (s, (a, b)) in after.iter().zip(&before).enumerate() {
                    assert_eq!(a[1] - b[1], a[2] - b[2], "{ctx}, shard {s}: allocs, frees");
                }
            }
        }
    }

    #[test]
    fn k1_degenerates_to_zero_link_traffic() {
        let ring = ring(32, 3);
        let a = sample(&ring, 3);
        let backend = ShardedBackend::titan_v(1, 32);
        let handle = backend.memory_handle();
        let mut ev = Evaluator::with_backend(&ring, Box::new(backend));
        let mut ra = a.clone();
        ev.make_resident(&mut ra);
        let mut got = ev.multiply(&ra, &ra);
        got.sync();
        assert_eq!(lock_sharded(&handle).link_stats(), LinkStats::default());
    }

    #[test]
    fn fork_runs_on_its_own_streams_and_matches() {
        let ring = ring(16, 2);
        let plan = RingPlan::new(&ring);
        let mut root = ShardedBackend::titan_v(2, 16);
        let mut fork = root.fork();
        let a = sample(&ring, 5);
        let (mut x, mut y) = (a.clone(), a.clone());
        root.run(&plan, Op::ForwardBatch(LimbBatch::from_poly(&mut x)));
        fork.run(&plan, Op::ForwardBatch(LimbBatch::from_poly(&mut y)));
        assert_eq!(x.flat(), y.flat());
    }

    /// Launches per shard of one resident forward + inverse over `stack`
    /// (polynomials of `level` rows, stacked), with both results checked
    /// against the CPU's `forward` and the input.
    fn resident_roundtrip_launches<F: Flavor>(
        mut dev: SimDevices<F>,
        plan: &RingPlan,
        stack: &[u64],
        level: usize,
        forward: &[u64],
    ) -> Vec<u64> {
        let mem = dev.memory();
        let buf = mem.lock().unwrap().alloc(stack.len());
        mem.lock().unwrap().upload(buf, stack);
        let launches = |dev: &SimDevices<F>| -> Vec<u64> {
            dev.lock()
                .shard_timelines()
                .iter()
                .map(|t| t.launches)
                .collect()
        };
        let before = launches(&dev);
        let mut got = vec![0u64; stack.len()];
        let views = [PolyView::new(buf, 0..level)];
        dev.run(
            plan,
            Op::Forward {
                views: &views,
                load: None,
                fold: None,
            },
        );
        mem.lock().unwrap().download(buf, &mut got);
        assert_eq!(got, forward, "resident forward");
        dev.run(plan, Op::Inverse { views: &views });
        mem.lock().unwrap().download(buf, &mut got);
        assert_eq!(got, stack, "resident forward -> inverse");
        launches(&dev)
            .iter()
            .zip(before)
            .map(|(a, b)| a - b)
            .collect()
    }

    /// Below `SMEM_MIN_N` every device runs a resident transform as one
    /// whole-row launch per direction: a forward + inverse over a stacked
    /// 2-level buffer (two polynomials, row r under prime r % 2) at N = 64
    /// costs 2 launches on `SimBackend` — radix-2 took 6 + 7 — and 2 on
    /// every shard of K ∈ {2, 3}, bit-exact with `CpuBackend`.
    #[test]
    fn small_ring_resident_roundtrip_is_two_launches_per_shard() {
        let (n, level) = (64usize, 2usize);
        let ring = ring(n, level);
        let plan = RingPlan::new(&ring);
        let stack = [sample(&ring, 5).flat(), sample(&ring, 9).flat()].concat();
        let mut forward = stack.clone();
        CpuBackend::default().run(
            &plan,
            Op::ForwardBatch(LimbBatch::new(&mut forward, n, level)),
        );
        let sim =
            resident_roundtrip_launches(SimBackend::titan_v(), &plan, &stack, level, &forward);
        assert_eq!(sim, [2], "SimBackend launches");
        for k in [2usize, 3] {
            let sharded = ShardedBackend::titan_v(k, n);
            let per_shard = resident_roundtrip_launches(sharded, &plan, &stack, level, &forward);
            assert_eq!(per_shard, vec![2; k], "launches per shard, K = {k}");
        }
    }

    /// Every op of a tiny ring on `be`, in order: a host-batch forward
    /// and inverse of `poly`, a resident forward and inverse of it, and a
    /// forward into `acc` that loads the lift of the one-row `dropped`
    /// under the last prime and stores the rescale dropping it. Returns
    /// the outputs after each op and the launches per shard that
    /// `launches` counts each op issue.
    fn tiny_ring_ops(
        be: &mut dyn NttBackend,
        launches: impl Fn() -> Vec<u64>,
        plan: &RingPlan,
        poly: &[u64],
        (acc, dropped): (&[u64], &[u64]),
    ) -> (Vec<Vec<u64>>, Vec<Vec<u64>>) {
        let (n, level) = (plan.degree(), plan.np());
        let mem = be.memory();
        let upload = |data: &[u64]| {
            let mut m = mem.lock().unwrap();
            let buf = m.alloc(data.len());
            m.upload(buf, data);
            buf
        };
        let download = |buf: DeviceBuf| {
            let mut out = vec![0u64; buf.len()];
            mem.lock().unwrap().download(buf, &mut out);
            out
        };
        let mut marks = vec![launches()];
        let mut outs = Vec::new();
        let mut x = poly.to_vec();
        be.run(plan, Op::ForwardBatch(LimbBatch::new(&mut x, n, level)));
        outs.push(x.clone());
        marks.push(launches());
        be.run(plan, Op::InverseBatch(LimbBatch::new(&mut x, n, level)));
        outs.push(x);
        marks.push(launches());
        let buf = upload(poly);
        let views = [PolyView::new(buf, 0..level)];
        be.run(
            plan,
            Op::Forward {
                views: &views,
                load: None,
                fold: None,
            },
        );
        outs.push(download(buf));
        marks.push(launches());
        be.run(plan, Op::Inverse { views: &views });
        outs.push(download(buf));
        marks.push(launches());
        let (acc, dropped) = (upload(acc), upload(dropped));
        be.run(
            plan,
            Op::Forward {
                views: &[PolyView::new(acc, 0..level - 1)],
                load: Some(Load::Lift {
                    src: &[PolyView::new(dropped, level - 1..level)],
                    centered: false,
                }),
                fold: Some(SubScale { dropped: level - 1 }),
            },
        );
        outs.push(download(acc));
        marks.push(launches());
        let per_op = marks
            .windows(2)
            .map(|w| w[1].iter().zip(&w[0]).map(|(a, b)| a - b).collect())
            .collect();
        (outs, per_op)
    }

    /// N = 2 and 4 run whole rows, as every ring below `SMEM_MIN_N` does
    /// (N = 2 took a radix-2 stage plus an `intt-scale` launch before):
    /// host-batch and resident forwards and inverses, and a forward with
    /// a folded rescale, are bit-exact with `CpuBackend` at one launch per
    /// op on `SimBackend` and on each shard of K = 2.
    #[test]
    fn two_and_four_point_rings_run_one_launch_per_direction_per_shard() {
        for n in [2usize, 4] {
            let ring = ring(n, 3);
            let plan = RingPlan::new(&ring);
            let poly = sample(&ring, 5).flat().to_vec();
            let (acc, dropped) = (sample(&ring, 9), sample(&ring, 13));
            let fold = (&acc.flat()[..2 * n], &dropped.flat()[2 * n..]);
            let (want, _) = tiny_ring_ops(&mut CpuBackend::default(), Vec::new, &plan, &poly, fold);
            assert_eq!((&want[1], &want[3]), (&poly, &poly), "N = {n}: round trips");
            for k in [1usize, 2] {
                let (mut be, handle): (Box<dyn NttBackend>, _) = if k == 1 {
                    let sim = SimBackend::titan_v();
                    let handle = Arc::clone(&sim.mem);
                    (Box::new(sim), handle)
                } else {
                    let sharded = ShardedBackend::titan_v(k, n);
                    let handle = sharded.memory_handle();
                    (Box::new(sharded), handle)
                };
                let launches = || -> Vec<u64> {
                    let m = lock_sharded(&handle);
                    m.shard_timelines().iter().map(|t| t.launches).collect()
                };
                let (got, per_op) = tiny_ring_ops(&mut *be, launches, &plan, &poly, fold);
                assert_eq!(got, want, "N = {n}, K = {k}: outputs");
                assert_eq!(per_op, vec![vec![1; k]; 5], "N = {n}, K = {k}: launches");
            }
        }
    }

    /// A misaligned operand is gathered into shard-local scratch on every
    /// op. Scratch is recycled, and the readiness event a recycled base
    /// carries is consumed on acquisition, so 32 repeats of a misaligned
    /// K = 3 product leave each shard's per-base readiness map at most one
    /// entry above its size after the first, instead of one more per
    /// gather.
    #[test]
    fn gather_scratch_recycling_keeps_readiness_map_bounded() {
        let (n, level) = (16usize, 5usize);
        let ring = ring(n, level);
        let plan = RingPlan::new(&ring);
        let mut sharded = ShardedBackend::titan_v(3, n);
        let handle = sharded.memory_handle();
        let (acc, rhs) = {
            let mem = sharded.memory();
            let mut m = mem.lock().unwrap();
            let (acc, rhs) = (m.alloc(level * n), m.alloc((level + 1) * n));
            m.upload(acc, &vec![3; level * n]);
            m.upload(rhs, &vec![5; (level + 1) * n]);
            (acc, rhs)
        };
        // Row r of the product reads row r + 1 of `rhs`, on another shard.
        let (acc, rhs) = ([PolyView::new(acc, 0..level)], [rhs.sub(n, level * n)]);
        let op = || Op::Pointwise {
            acc: &acc,
            rhs: &rhs,
        };
        let entries = || -> Vec<usize> {
            let m = lock_sharded(&handle);
            m.shards
                .iter()
                .map(|sh| lock_mem(sh).readiness_entries())
                .collect()
        };
        sharded.run(&plan, op());
        let baseline = entries();
        for _ in 0..32 {
            sharded.run(&plan, op());
        }
        assert!(lock_sharded(&handle).link_stats().words > 0, "no gather");
        for (s, (b, a)) in baseline.iter().zip(entries()).enumerate() {
            assert!(a <= b + 1, "shard {s}: readiness map grew {b} -> {a}");
        }
    }

    #[test]
    fn timeline_aggregates_max_overlap_and_sums_counts() {
        let ring = ring(32, 4);
        let a = sample(&ring, 5);
        let backend = ShardedBackend::titan_v(4, 32);
        let handle = backend.memory_handle();
        let mut ev = Evaluator::with_backend(&ring, Box::new(backend));
        let mut ra = a.clone();
        ev.make_resident(&mut ra);
        let mut got = ev.multiply(&ra, &ra);
        got.sync();
        let mut m = lock_sharded(&handle);
        m.sync_all();
        let agg = m.timeline();
        let per: Vec<DeviceTimeline> = m.shard_timelines();
        let max_overlap = per.iter().fold(0.0f64, |acc, t| acc.max(t.overlapped_s));
        assert!(agg.overlapped_s >= max_overlap - 1e-12);
        assert_eq!(agg.launches, per.iter().map(|t| t.launches).sum());
    }
}
