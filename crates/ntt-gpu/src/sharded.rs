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
//! multi-term FMA per accumulator reads term `k` from the digit
//! sub-view at row offset `k * level` of the decompose scratch, and
//! under a cyclic partition those views land on the same shards as the
//! `level`-row accumulators whenever `level % K == 0` — every term's
//! gather stays link-free instead of re-gathering a near-full operand
//! per digit. What does move is the key-switch base-conversion
//! itself: gadget digit decomposition reads **every** residue row of
//! the source polynomial to build each digit, so a `K`-way sharded
//! decompose pays an explicit all-gather of the remote rows over the
//! inter-device link — the same traffic pattern multi-GPU HE systems
//! report as their scaling ceiling. The one-source-prime base
//! conversion of a rescale (broadcast of each component's dropped row)
//! and of a mod-raise (broadcast of the level-1 row) pays the same way,
//! just `N` words per component instead of `level * N`; the rest of an
//! evaluation-domain rescale stays on the shards that own the rows.
//!
//! The transforms and the base conversion take one view per polynomial
//! and run **one launch per shard** across all of them
//! (`Held::each_shard`): each shard lists the rows it owns of every
//! written view in one row-address table, so both components of a
//! ciphertext, or one dropped row of each, share a launch.
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
//! one device: upload, launch and download per host batch, one launch per
//! device op, one alloc check per alloc.
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
//! up. The *written* operand's partition decides placement: each of
//! its shard-local pieces runs where it lives, and any secondary
//! operand piece resident elsewhere is gathered into shard-local
//! scratch over the link first (`Held::gather_rows`). Aligned
//! operands (the common case) gather into a zero-copy direct
//! reference; misaligned ones pay honest link traffic.

use crate::backend::{
    calibrate_forward_choice, classify, ensure_tables, launch_automorphism, launch_elemwise,
    launch_fma, launch_rows, lock_mem, run_forward, run_inverse, DevData, ElemOp, ForwardImpl,
    ForwardMode, ShapeChoice, SimMemory, SMEM_MIN_N,
};
use crate::rows::{FoldRows, RowTable};
use gpu_sim::{
    Buf, DeviceTimeline, Event, FaultOp, GpuConfig, OpClass, Stream, WarpCtx, WarpKernel,
};
use ntt_core::backend::{
    handle_namespace, BackendError, BackendOp, DeviceBuf, DeviceMemory, LimbBatch, NttBackend,
    PolyView, RingPlan, SharedDeviceMemory, SubScale, TransferStats,
};
use ntt_math::modops::neg_mod;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::{Arc, Mutex, MutexGuard};

/// Inter-device link traffic ledger (the sharded counterpart of
/// [`TransferStats`]; one entry per cross-shard move, words summed over
/// both directions of nothing — each move is counted once).
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

/// Row range of a `rows`-row *host batch* handled by shard `s` of `k`
/// (contiguous block split; early shards take the larger halves when
/// `rows % k != 0`). Host-batch operands are transient — uploaded,
/// transformed, downloaded in one call — so their split is free to
/// differ from the cyclic partition device-resident allocations use.
fn shard_rows(rows: usize, k: usize, s: usize) -> Range<usize> {
    (s * rows / k)..((s + 1) * rows / k)
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

    /// Each row's prime index (`r % level`), the row map the row-wise
    /// kernels take.
    fn primes(&self, level: usize) -> Vec<usize> {
        (0..self.count).map(|i| self.get(i) % level).collect()
    }
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

/// One shard piece of a row-wise device op, as its kernel sees it.
struct Piece {
    shard: usize,
    /// View-relative rows of the written operand in this piece.
    rows: Rows,
    /// The written operand's piece.
    dst: Buf,
    /// The read operands, materialized on this shard, in the order the
    /// op listed them.
    src: Vec<Buf>,
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

    /// Draw `kind` from the fault plane of every shard `view` touches.
    fn gate_view(
        &mut self,
        view: DeviceBuf,
        op: &'static str,
        kind: FaultOp,
    ) -> Result<(), BackendError> {
        let segs = self.segments(view);
        for s in 0..self.sh.len() {
            if segs.iter().any(|g| g.shard == s) {
                self.sh[s].fault_gate(op, kind)?;
            }
        }
        Ok(())
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
    /// all-gather when `view` is a decompose source. Pair with
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

    /// Return gathered scratch to shard `s`'s free list (no-op for the
    /// zero-copy direct case).
    fn release_gather(&mut self, s: usize, g: Gathered) {
        if g.scratch {
            self.sh[s].release_scratch(g.buf);
        }
    }

    /// Run one row-wise device op on every shard piece of the written
    /// view `dst`: gather each of `reads` onto the piece's shard (`None`
    /// rows = the piece's own rows; `Some` = fixed rows every piece
    /// needs, e.g. a broadcast), fence on `dst`, run `kernel`, record
    /// the write, release the gathers.
    fn each_piece(
        &mut self,
        plan: &RingPlan,
        dst: DeviceBuf,
        reads: &[(DeviceBuf, Option<Rows>)],
        mut kernel: impl FnMut(&mut SimMemory, Piece),
    ) {
        let n = plan.degree();
        for seg in self.row_segments(dst, n) {
            let s = seg.shard;
            ensure_tables(&mut self.sh[s], plan);
            let gathered: Vec<Gathered> = reads
                .iter()
                .map(|&(view, rows)| self.gather_rows(view, rows.unwrap_or(seg.rows), n, s))
                .collect();
            let sh = &mut self.sh[s];
            let root = sh.root_base(seg.local);
            let data = sh.raw_buf(seg.local);
            sh.wait_ready(&[root]);
            let src = gathered.iter().map(|g| g.buf).collect();
            kernel(
                sh,
                Piece {
                    shard: s,
                    rows: seg.rows,
                    dst: data,
                    src,
                },
            );
            sh.mark_written(&[root]);
            for g in gathered {
                self.release_gather(s, g);
            }
        }
    }

    /// Run one multi-view device op with **one launch per shard**: every
    /// shard that owns rows of any `written` view gathers what those rows
    /// read, fences on every written allocation, and hands `kernel` two
    /// row tables — its written rows across all views, under each view's
    /// primes, and per written row the row it reads. `read[k]` is read
    /// for `written[k]`: the same rows, or with `broadcast` its one row
    /// for every written row (an empty `read` reads nothing).
    fn each_shard(
        &mut self,
        plan: &RingPlan,
        written: &[PolyView],
        (read, broadcast): (&[PolyView], bool),
        mut kernel: impl FnMut(&mut SimMemory, &RowTable, &RowTable),
    ) {
        let n = plan.degree();
        let mut by_shard: Vec<Vec<(usize, RowSeg)>> = self.sh.iter().map(|_| Vec::new()).collect();
        for (k, view) in written.iter().enumerate() {
            for seg in self.row_segments(view.buf, n) {
                by_shard[seg.shard].push((k, seg));
            }
        }
        for (s, segs) in by_shard.into_iter().enumerate() {
            if segs.is_empty() {
                continue;
            }
            ensure_tables(&mut self.sh[s], plan);
            let (mut rows, mut reads) = (RowTable::default(), RowTable::default());
            let (mut roots, mut gathered) = (Vec::new(), Vec::new());
            for (k, seg) in &segs {
                let source = read.get(*k).map(|r| {
                    let want = if broadcast { Rows::run(0, 1) } else { seg.rows };
                    (r, self.gather_rows(r.buf, want, n, s))
                });
                let local = self.sh[s].raw_buf(seg.local);
                roots.push(self.sh[s].root_base(seg.local));
                for i in 0..seg.rows.count {
                    let r = seg.rows.get(i);
                    rows.push(local.sub(i * n, n), written[*k].prime_of(r));
                    if let Some((view, g)) = &source {
                        let (j, r) = if broadcast { (0, 0) } else { (i, r) };
                        reads.push(g.buf.sub(j * n, n), view.prime_of(r));
                    }
                }
                gathered.extend(source.map(|(_, g)| g));
            }
            let sh = &mut self.sh[s];
            sh.wait_ready(&roots);
            kernel(sh, &rows, &reads);
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

    // The fallible surface: each op draws the armed fault plan of every
    // shard it touches *before* any data moves, so an `Err` leaves host
    // and device state exactly as they were and the identical call can
    // be retried.

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

    fn try_upload(&mut self, dst: DeviceBuf, src: &[u64]) -> Result<(), BackendError> {
        if !self.is_live(dst) || src.len() > dst.len() {
            return Err(BackendError::Fatal { op: "upload" });
        }
        let mut h = self.hold();
        h.gate_view(dst.sub(0, src.len()), "upload", FaultOp::Upload)?;
        h.upload(dst, src);
        Ok(())
    }

    fn try_download(&mut self, src: DeviceBuf, dst: &mut [u64]) -> Result<(), BackendError> {
        if !self.is_live(src) || dst.len() > src.len() {
            return Err(BackendError::Fatal { op: "download" });
        }
        let mut h = self.hold();
        h.gate_view(src.sub(0, dst.len()), "download", FaultOp::Download)?;
        h.download(src, dst);
        Ok(())
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

/// One executor's per-shard staging state.
#[derive(Default)]
struct ShardStaging {
    /// Primary host-batch operand.
    data: DevData,
    /// Secondary host-batch operand.
    scratch: DevData,
    /// [`BackendOp::Multiply`]'s second-operand scratch.
    mul_scratch: DevData,
    /// Lazily created copy stream for staging prefetches
    /// ([`NttBackend::stage_upload`]): uploads ride here so compute
    /// queued on the compute stream overlaps the transfer, fenced per
    /// buffer by the readiness events.
    copy: Option<Stream>,
}

/// The simulated-GPU backend over `K` devices: shared sharded memory
/// (GMEM + handle maps + plan tables per shard), this executor's
/// compute stream and staging buffers on each shard, and the memoized
/// forward routing table. Use it through its two faces,
/// [`crate::SimBackend`] and [`ShardedBackend`].
///
/// The root backend runs on each shard's [`Stream::DEFAULT`]; every
/// [`NttBackend::fork`] allocates its own stream per shard, so
/// concurrent evaluators from the pool enqueue on independent queues
/// and their modeled device time overlaps (subject to SM capacity).
pub struct SimDevices<F: Flavor> {
    mem: Arc<Mutex<ShardedMemory>>,
    /// This executor's compute stream on each shard (index = shard).
    streams: Vec<Stream>,
    /// This executor's staging state on each shard.
    staging: Vec<ShardStaging>,
    /// Memoized per-`N` forward implementation choice (shared by forks
    /// so the calibration runs once per shape per backend family).
    pub(crate) split_cache: Arc<Mutex<HashMap<usize, ShapeChoice>>>,
    flavor: PhantomData<F>,
}

/// The fault draws of one staged host-batch op, in issue order.
const STAGED: &[FaultOp] = &[FaultOp::Upload, FaultOp::Launch, FaultOp::Download];
/// The fault draw of one device-resident op.
const LAUNCH: &[FaultOp] = &[FaultOp::Launch];

impl<F: Flavor> SimDevices<F> {
    /// A root executor on the default streams of `mem`'s shards.
    ///
    /// If `NTT_WARP_FAULTS` is set, the parsed [`gpu_sim::FaultPlan`]
    /// is armed on **every** shard — each device draws its own
    /// schedule, so fault rates scale with the device count the way a
    /// real multi-GPU node's do. Arming happens here, not in
    /// [`SimMemory::new`], so the scratch devices the forward-choice
    /// calibration sweeps build stay fault-free by construction.
    pub(crate) fn over(mem: ShardedMemory) -> Self {
        let k = mem.shard_count();
        let backend = Self {
            mem: Arc::new(Mutex::new(mem)),
            streams: vec![Stream::DEFAULT; k],
            staging: (0..k).map(|_| ShardStaging::default()).collect(),
            split_cache: Arc::new(Mutex::new(HashMap::new())),
            flavor: PhantomData,
        };
        if let Some(plan) = gpu_sim::FaultPlan::from_env() {
            backend.set_fault_plan(Some(plan));
        }
        backend
    }

    /// Arm (or with `None`, disarm) a deterministic fault schedule on
    /// every shard. Affects every fork sharing this backend's memory;
    /// only the fallible [`NttBackend::try_run`] draws from the plan. See
    /// [`gpu_sim::FaultPlan`].
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

    /// Run `op` on the shard set with every shard locked and bound to
    /// this executor's streams, handing it this executor's staging.
    fn on_shards<R>(&mut self, op: impl FnOnce(&mut Held<'_>, &mut [ShardStaging]) -> R) -> R {
        let mut m = lock_sharded(&self.mem);
        let mut h = m.hold();
        h.bind(&self.streams);
        op(&mut h, &mut self.staging)
    }

    /// The forward implementation for an `n`-point batch: the env
    /// override; below [`SMEM_MIN_N`], whole rows packed into one SMEM
    /// launch (the degenerate `N × 1` split, chosen from `N` alone with
    /// no sweep; radix-2 for `N < 4`); or the memoized modeled-time
    /// winner over the paper's split candidates (swept on a scratch
    /// single device — per-shard row counts shrink with `K`, but the
    /// shape class is decided by `N`).
    fn forward_choice(&self, n: usize, rows: usize) -> ForwardImpl {
        match crate::backend::forward_mode() {
            ForwardMode::Radix2 => return ForwardImpl::Radix2,
            ForwardMode::Smem if n >= 4 => {
                return self.cached_or_calibrated(n, rows).best_smem;
            }
            ForwardMode::Hier if n >= 4 => {
                return self.cached_or_calibrated(n, rows).best_hier;
            }
            _ => {}
        }
        if n >= SMEM_MIN_N {
            self.cached_or_calibrated(n, rows).auto
        } else if n >= 4 {
            ForwardImpl::Smem {
                n1: n,
                ot_stages: 0,
            }
        } else {
            ForwardImpl::Radix2
        }
    }

    /// The inverse implementation for an `n`-point batch: the forward's
    /// verdict, mirrored — radix-2 stays radix-2 and an SMEM split
    /// (whole rows included) runs the SMEM inverse at the same split.
    /// There is no hierarchical inverse, so a hierarchical verdict takes
    /// the shape's best SMEM split. No sweep of its own: the mirrored
    /// inverse ranks the splits like the forward does.
    fn inverse_choice(&self, n: usize, rows: usize) -> ForwardImpl {
        match self.forward_choice(n, rows) {
            ForwardImpl::Hier { .. } => self.cached_or_calibrated(n, rows).best_smem,
            choice => choice,
        }
    }

    fn cached_or_calibrated(&self, n: usize, rows: usize) -> ShapeChoice {
        let cache = || {
            self.split_cache
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
        };
        if let Some(&c) = cache().get(&n) {
            return c;
        }
        let config = lock_mem(&self.lock().shards[0]).gpu().config.clone();
        let choice = calibrate_forward_choice(&config, n, rows);
        cache().insert(n, choice);
        choice
    }

    // ---- The fault gate of the fallible surface -------------------------
    //
    // `try_run` is gate-then-run: validate the op's handles and draw the
    // armed fault plan *up front*, then run the unchanged infallible
    // body. Injected faults therefore fire between ops — never mid-op —
    // which is what makes a failed call retry-safe: on `Err`, no operand
    // byte has moved. Each shard draws one schedule slot per hardware
    // command class the op would issue on it (a staged host batch is
    // upload + launch + download; a device-resident op is one launch), so
    // fault *rates* scale with real command traffic.

    /// Handle validation plus the fault draws `kinds` on every shard,
    /// in shard order. A freed or foreign handle is a caller bug the
    /// infallible path treats as an invariant violation (a panic); on
    /// the typed surface it comes back as a fatal error instead.
    fn gate(
        &self,
        op: &'static str,
        handles: &[DeviceBuf],
        kinds: &[FaultOp],
    ) -> Result<(), BackendError> {
        let mut m = self.lock();
        if !handles.iter().all(|&b| m.is_live(b)) {
            return Err(BackendError::Fatal { op });
        }
        let mut h = m.hold();
        h.bind(&self.streams);
        for sh in h.sh.iter_mut() {
            for &kind in kinds {
                sh.fault_gate(op, kind)?;
            }
        }
        Ok(())
    }

    /// One staged host-batch op: shard `s` takes the contiguous row
    /// block `shard_rows(rows, K, s)` of `io`, uploads its slice of `io`
    /// (and of `rhs`) into its staging buffers, runs `kernels` on them,
    /// and downloads the primary operand back into `io` — one upload per
    /// operand and one download per call on each shard, charged to the
    /// [`gpu_sim::Gmem`] transfer ledger: exactly the per-call round
    /// trip the residency layer exists to remove.
    fn host_batch(
        &mut self,
        plan: &RingPlan,
        mut io: LimbBatch<'_>,
        rhs: Option<&[u64]>,
        kernels: impl Fn(&mut SimMemory, Buf, Option<Buf>, &[usize]),
    ) {
        let (n, level, rows) = (io.n(), io.level(), io.rows());
        let io = io.data();
        self.on_shards(|h, staging| {
            let k = h.sh.len();
            for (s, (sh, st)) in h.sh.iter_mut().zip(staging).enumerate() {
                let r = shard_rows(rows, k, s);
                if r.is_empty() {
                    continue;
                }
                let row_prime: Vec<usize> = r.clone().map(|r| r % level).collect();
                let words = r.start * n..r.end * n;
                ensure_tables(sh, plan);
                let a = st.data.ensure(sh.gpu_mut(), words.len());
                let a = a.sub(0, words.len());
                let b = rhs.map(|_| st.scratch.ensure(sh.gpu_mut(), words.len()));
                let b = b.map(|b| b.sub(0, words.len()));
                let bases = [a.base(), b.unwrap_or(a).base()];
                sh.wait_ready(&bases);
                sh.gpu_mut().stream_upload(a, 0, &io[words.clone()]);
                if let (Some(b), Some(rhs)) = (b, rhs) {
                    sh.gpu_mut().stream_upload(b, 0, &rhs[words.clone()]);
                }
                kernels(sh, a, b, &row_prime);
                sh.gpu_mut().stream_download(a, &mut io[words]);
                sh.mark_written(&bases);
            }
        });
    }
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
    fn drop(&mut self) {
        let m = lock_sharded(&self.mem);
        for ((sh, &stream), st) in m.shards.iter().zip(&self.streams).zip(&self.staging) {
            let mut sh = lock_mem(sh);
            if stream != Stream::DEFAULT {
                sh.gpu_mut().destroy_stream(stream);
            }
            if let Some(copy) = st.copy {
                sh.gpu_mut().destroy_stream(copy);
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
            staging: streams.iter().map(|_| ShardStaging::default()).collect(),
            streams,
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

    /// Prefetch a staging upload on this executor's copy stream of each
    /// shard: the transfer is enqueued off the compute stream and the
    /// buffer's readiness event is recorded on the copy stream, so
    /// consuming kernels (which fence per buffer via `wait_ready`) start
    /// exactly when the copy lands while previously queued compute
    /// overlaps it.
    fn stage_upload(&mut self, data: &[u64]) -> DeviceBuf {
        self.on_shards(|h, staging| {
            let buf = h.alloc(data.len());
            for (sh, st) in h.sh.iter_mut().zip(staging) {
                let copy = *st.copy.get_or_insert_with(|| sh.gpu_mut().create_stream());
                sh.bind(copy);
            }
            // `upload` fences each copy stream on any stale readiness
            // event a recycled base may carry, then records the new one
            // there.
            h.upload(buf, data);
            buf
        })
    }

    fn run(&mut self, plan: &RingPlan, op: BackendOp<'_>) {
        let n = plan.degree();
        match op {
            BackendOp::ForwardBatch(batch) => {
                let (n, choice) = (batch.n(), self.forward_choice(batch.n(), batch.rows()));
                self.host_batch(plan, batch, None, |sh, a, _, rp| {
                    run_forward(sh, plan, &RowTable::contiguous(a, n, rp), choice, None)
                });
            }
            BackendOp::InverseBatch(batch) => {
                let (n, choice) = (batch.n(), self.inverse_choice(batch.n(), batch.rows()));
                self.host_batch(plan, batch, None, |sh, a, _, rp| {
                    run_inverse(sh, plan, &RowTable::contiguous(a, n, rp), choice)
                });
            }
            BackendOp::PointwiseBatch { acc, rhs } => {
                assert_eq!(acc.as_slice().len(), rhs.len(), "operand shape mismatch");
                let n = acc.n();
                self.host_batch(plan, acc, Some(rhs), |sh, a, b, rp| {
                    launch_elemwise(sh, ElemOp::Mul, a, b, n, rp)
                });
            }
            BackendOp::MultiplyBatch { a, b, mut out } => {
                assert_eq!(a.len(), out.as_slice().len(), "operand shape mismatch");
                assert_eq!(b.len(), out.as_slice().len(), "operand shape mismatch");
                let n = out.n();
                let (choice, inverse) = (
                    self.forward_choice(n, out.rows()),
                    self.inverse_choice(n, out.rows()),
                );
                out.data().copy_from_slice(a);
                // The classic device pipeline: NTT(a), NTT(b), pointwise,
                // iNTT — four launch groups over one resident batch.
                self.host_batch(plan, out, Some(b), |sh, a, b, rp| {
                    let b = b.expect("multiply stages both operands");
                    let (ta, tb) = (
                        RowTable::contiguous(a, n, rp),
                        RowTable::contiguous(b, n, rp),
                    );
                    run_forward(sh, plan, &ta, choice, None);
                    run_forward(sh, plan, &tb, choice, None);
                    launch_elemwise(sh, ElemOp::Mul, a, Some(b), n, rp);
                    run_inverse(sh, plan, &ta, inverse);
                });
            }

            // ---- Device-resident execution (zero host↔device traffic) ----
            BackendOp::Forward { views, fold } => {
                let rows = views.iter().map(|v| v.buf.len() / n).sum();
                let choice = self.forward_choice(n, rows);
                self.on_shards(|h, _| match fold {
                    None => h.each_shard(plan, views, (&[], false), |sh, rows, _| {
                        run_forward(sh, plan, rows, choice, None)
                    }),
                    // The rescale tail: the accumulators are the written
                    // views, each lifted view is read row for row (its
                    // separate allocation aligns with its accumulator, so
                    // the gather is the zero-copy direct reference), and
                    // the transform stores into the accumulators.
                    Some(SubScale { acc, dropped }) => {
                        assert_eq!(acc.len(), views.len(), "one accumulator per view");
                        let written: Vec<PolyView> = views
                            .iter()
                            .zip(acc)
                            .map(|(v, &a)| {
                                assert_eq!(a.len(), v.buf.len(), "fold shape mismatch");
                                PolyView::new(a, v.primes.clone())
                            })
                            .collect();
                        let moduli = plan.ring().basis().primes();
                        h.each_shard(plan, &written, (views, false), |sh, acc, lifted| {
                            let fold = FoldRows::new(acc.clone(), moduli, dropped);
                            run_forward(sh, plan, lifted, choice, Some(&fold))
                        })
                    }
                });
            }
            BackendOp::Inverse { views } => {
                let rows = views.iter().map(|v| v.buf.len() / n).sum();
                let choice = self.inverse_choice(n, rows);
                self.on_shards(|h, _| {
                    h.each_shard(plan, views, (&[], false), |sh, rows, _| {
                        run_inverse(sh, plan, rows, choice)
                    })
                });
            }
            BackendOp::Multiply { a, b, out, level } => {
                let (choice, inverse) = (
                    self.forward_choice(n, out.len() / n),
                    self.inverse_choice(n, out.len() / n),
                );
                self.on_shards(|h, staging| {
                    h.each_piece(plan, out, &[(a, None), (b, None)], |sh, p| {
                        let words = p.rows.count * n;
                        let scratch = staging[p.shard].mul_scratch.ensure(sh.gpu_mut(), words);
                        let scratch = scratch.sub(0, words);
                        sh.wait_ready(&[scratch.base()]);
                        // Stage both operands on the owning shard (inputs
                        // intact).
                        sh.gpu_mut().gmem.copy(p.src[0], p.dst);
                        sh.gpu_mut().gmem.copy(p.src[1], scratch);
                        let row_prime = p.rows.primes(level);
                        let dst = RowTable::contiguous(p.dst, n, &row_prime);
                        run_forward(sh, plan, &dst, choice, None);
                        let rhs = RowTable::contiguous(scratch, n, &row_prime);
                        run_forward(sh, plan, &rhs, choice, None);
                        launch_elemwise(sh, ElemOp::Mul, p.dst, Some(scratch), n, &row_prime);
                        run_inverse(sh, plan, &dst, inverse);
                        sh.mark_written(&[scratch.base()]);
                    })
                });
            }
            BackendOp::Pointwise { acc, rhs, level } => {
                self.on_shards(|h, _| {
                    h.each_piece(plan, acc, &[(rhs, None)], |sh, p| {
                        let rp = p.rows.primes(level);
                        launch_elemwise(sh, ElemOp::Mul, p.dst, Some(p.src[0]), n, &rp)
                    })
                });
            }
            BackendOp::Fma { acc, x, y, level } => {
                // Multiply-accumulate chains land here: the key-switch
                // inner product (term `k` a digit sub-view at row offset
                // `k * level` of the decompose scratch, plus any folded
                // product terms) and the plaintext-product sums. Each
                // term gathers `x[k]` then `y[k]` onto the accumulator
                // piece's shard. The cyclic partition makes every digit
                // view land on the accumulator's shards whenever
                // `level % K == 0`, and a separate level-row allocation
                // always does — the zero-copy fast path of the gather —
                // while any genuinely misaligned view (e.g. `K = 3` with
                // `level = 8`) arrives over the link, correct either way.
                // All terms then run as one launch per piece.
                assert_eq!(x.len(), y.len(), "fma term count mismatch");
                let reads: Vec<(DeviceBuf, Option<Rows>)> = x
                    .iter()
                    .zip(y)
                    .flat_map(|(&xk, &yk)| {
                        assert_eq!(xk.len(), acc.len(), "fma term shape mismatch");
                        assert_eq!(yk.len(), acc.len(), "fma term shape mismatch");
                        [(xk, None), (yk, None)]
                    })
                    .collect();
                self.on_shards(|h, _| {
                    h.each_piece(plan, acc, &reads, |sh, p| {
                        launch_fma(sh, p.dst, &p.src, n, &p.rows.primes(level))
                    })
                });
            }
            BackendOp::AddSub {
                acc,
                rhs,
                level,
                subtract,
            } => {
                let op = if subtract { ElemOp::Sub } else { ElemOp::Add };
                self.on_shards(|h, _| {
                    h.each_piece(plan, acc, &[(rhs, None)], |sh, p| {
                        launch_elemwise(sh, op, p.dst, Some(p.src[0]), n, &p.rows.primes(level))
                    })
                });
            }
            BackendOp::Negate { buf, level } => {
                self.on_shards(|h, _| {
                    h.each_piece(plan, buf, &[], |sh, p| {
                        launch_elemwise(sh, ElemOp::Neg, p.dst, None, n, &p.rows.primes(level))
                    })
                });
            }
            BackendOp::Decompose {
                src,
                dst,
                level,
                digits,
                gadget_bits,
            } => {
                assert_eq!(src.len(), level * n, "source must be level x N");
                assert_eq!(
                    dst.len(),
                    level * digits * level * n,
                    "digit buffer shape mismatch"
                );
                // Every digit reads every residue row of the source: the
                // sharded base conversion is an all-gather of the remote
                // rows (≈ (K-1)/K · level · N words across the link per
                // shard).
                let all = Rows::run(0, level);
                self.on_shards(|h, _| {
                    h.each_piece(plan, dst, &[(src, Some(all))], |sh, p| {
                        let kernel = DecomposeKernel {
                            src: p.src[0],
                            dst: p.dst,
                            n,
                            level,
                            digits,
                            gadget_bits,
                            rows: p.rows,
                        };
                        launch_rows(sh.gpu_mut(), "sim-decompose", p.rows.count * n, &kernel);
                    })
                });
            }
            BackendOp::Automorphism { src, dst, level, g } => {
                assert_eq!(src.len(), dst.len(), "operand shape mismatch");
                let g = g % (2 * n as u64);
                assert_eq!(g % 2, 1, "Galois element must be odd");
                // The permutation is row-local, so each dst row needs
                // exactly its own src row — aligned allocations stay
                // link-free.
                self.on_shards(|h, _| {
                    h.each_piece(plan, dst, &[(src, None)], |sh, p| {
                        launch_automorphism(sh, p.src[0], p.dst, n, g, &p.rows.primes(level))
                    })
                });
            }
            BackendOp::BaseConvert { src, dst, centered } => {
                assert_eq!(src.len(), dst.len(), "one source row per destination");
                for v in src {
                    assert_eq!(v.buf.len(), n, "one-source-prime conversion reads one row");
                }
                let moduli = plan.ring().basis().primes();
                // Every shard owning destination rows needs the source
                // row: a broadcast of N words per remote shard over the
                // link (the rescale's dropped row, the mod-raise's
                // level-1 row).
                self.on_shards(|h, _| {
                    h.each_shard(plan, dst, (src, true), |sh, dst, src| {
                        let kernel = LiftKernel {
                            dst,
                            src,
                            n,
                            centered,
                            moduli,
                        };
                        launch_rows(sh.gpu_mut(), "sim-baseconv", dst.len() * n, &kernel);
                    })
                });
            }
        }
    }

    /// The one fault gate (`gate`: handle check, then the op's draws on
    /// every shard), then the unchanged infallible run.
    fn try_run(&mut self, plan: &RingPlan, op: BackendOp<'_>) -> Result<(), BackendError> {
        let kinds = if op.is_host_batch() { STAGED } else { LAUNCH };
        self.gate(op.label(), &op.handles(), kinds)?;
        self.run(plan, op);
        Ok(())
    }
}

// ---- Cross-row kernels ---------------------------------------------
//
// Decompose and base conversion read rows other than the one they
// write. Each runs on one shard's rows — a row slice of the written
// operand plus a gathered copy of the rows it reads — with the global
// row index or the row table restoring what the math depends on. At
// `K = 1` the slice is the whole operand and the gather is a direct
// reference, so these are the single-device kernels too.

/// Gadget digit decomposition (layout per [`BackendOp::Decompose`])
/// writing a piece of the digit-poly rows from the full `level × N`
/// source: one thread per output element, each reading its source word
/// and extracting one base-`2^w` digit.
struct DecomposeKernel {
    src: Buf,
    dst: Buf,
    n: usize,
    level: usize,
    digits: usize,
    gadget_bits: u32,
    /// Global row index per local destination row.
    rows: Rows,
}

impl WarpKernel for DecomposeKernel {
    fn phases(&self) -> usize {
        1
    }

    fn run_warp(&self, ctx: &mut WarpCtx<'_>) {
        let total = self.rows.count * self.n;
        let mask = (1u64 << self.gadget_bits) - 1;
        let lanes = ctx.lanes();
        let mut addr_s = vec![None; lanes];
        let mut shift = vec![0u32; lanes];
        let mut active = 0u64;
        for l in 0..lanes {
            let gt = ctx.global_thread(l);
            if gt >= total {
                continue;
            }
            active += 1;
            let poly = self.rows.get(gt / self.n) / self.level;
            let (j, d) = (poly / self.digits, poly % self.digits);
            let t = gt % self.n;
            shift[l] = self.gadget_bits * d as u32;
            addr_s[l] = Some(self.src.word(j * self.n + t));
        }
        if active == 0 {
            return;
        }
        // Replicated rows re-read the same source words; the read-only
        // path absorbs the repeats the way twiddle broadcasts do.
        let vals = ctx.gmem_load_cached(&addr_s);
        let writes: Vec<Option<(usize, u64)>> = (0..lanes)
            .map(|l| {
                let v = vals[l]?;
                Some((self.dst.word(ctx.global_thread(l)), (v >> shift[l]) & mask))
            })
            .collect();
        ctx.count_op(OpClass::Generic, active);
        ctx.gmem_store(&writes);
    }
}

/// One-source-prime base conversion (contract per
/// [`BackendOp::BaseConvert`]) over one shard's destination rows of every
/// view: one thread per *output* element, writing the exact lift of its
/// row's source word under the row's prime. Every destination row of one
/// source re-reads the same `N` words, so the read goes through the
/// cached path like the decompose kernel's replicated rows.
struct LiftKernel<'a> {
    dst: &'a RowTable,
    /// Per destination row, its source row under the source prime.
    src: &'a RowTable,
    n: usize,
    /// Centered instead of plain lift.
    centered: bool,
    moduli: &'a [u64],
}

impl WarpKernel for LiftKernel<'_> {
    fn phases(&self) -> usize {
        1
    }

    fn run_warp(&self, ctx: &mut WarpCtx<'_>) {
        let total = self.dst.len() * self.n;
        let lanes = ctx.lanes();
        let mut addr_s = vec![None; lanes];
        let mut row = vec![0usize; lanes];
        let mut active = 0u64;
        for l in 0..lanes {
            let gt = ctx.global_thread(l);
            if gt >= total {
                continue;
            }
            active += 1;
            row[l] = gt / self.n;
            addr_s[l] = Some(self.src.flat_word(self.n, gt));
        }
        if active == 0 {
            return;
        }
        let vals = ctx.gmem_load_cached(&addr_s);
        let writes: Vec<Option<(usize, u64)>> = (0..lanes)
            .map(|l| {
                let v = vals[l]?;
                let (p, q) = (
                    self.moduli[self.dst.prime(row[l])],
                    self.moduli[self.src.prime(row[l])],
                );
                let half = if self.centered { q >> 1 } else { q };
                let lifted = if v <= half {
                    v % p
                } else {
                    neg_mod((q - v) % p, p)
                };
                Some((self.dst.flat_word(self.n, ctx.global_thread(l)), lifted))
            })
            .collect();
        ctx.count_op(OpClass::Generic, active);
        ctx.gmem_store(&writes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimBackend;
    use ntt_core::backend::{BackendOp as Op, CpuBackend, Evaluator};
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
    fn host_batch_split_is_contiguous_and_total() {
        for rows in [1, 2, 3, 5, 8, 12] {
            for k in [1, 2, 3, 4, 8] {
                let mut covered = 0;
                for s in 0..k {
                    let r = shard_rows(rows, k, s);
                    assert_eq!(r.start, covered, "contiguous");
                    covered = r.end;
                }
                assert_eq!(covered, rows, "total");
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
        // Drive the key-switch digit shape directly: decompose a
        // level × N source into the level·digits·level digit rows,
        // then FMA a digit sub-view (whose partition is misaligned
        // with the accumulator's) — the two ops that carry the
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
                Op::Decompose {
                    src,
                    dst,
                    level,
                    digits,
                    gadget_bits,
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
                acc,
                x: &x,
                y: &ys,
                level,
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

    #[test]
    fn foreign_handle_is_fatal_on_the_fallible_surface() {
        let ring = ring(16, 2);
        let plan = RingPlan::new(&ring);
        let mut sharded = ShardedBackend::titan_v(2, 16);
        let mut other = ShardedMemory::new(GpuConfig::titan_v(), 2, 16);
        let foreign = other.alloc(32);
        let views = [PolyView::new(foreign, 0..2)];
        let err = sharded
            .try_run(
                &plan,
                Op::Forward {
                    views: &views,
                    fold: None,
                },
            )
            .expect_err("foreign handle must not resolve");
        assert!(
            matches!(err, BackendError::Fatal { op: "dev_forward" }),
            "got {err:?}"
        );

        // The same contract for every op, on Cpu, Sim and Sharded at
        // K = 2: a freed operand is Fatal under the op's label and moves
        // no byte; with no plan armed `try_run` computes what `run` does;
        // under a zero-rate plan one call draws upload, launch and
        // download (host batch) or one launch (device op) on each shard.
        //
        // Device op `i` runs over level-2 polys `a`, `b`, `c`, a one-row
        // `row`, the 8-row digit buffer of a 2-digit decomposition, two
        // more level-2 polys `x0`, `x1` and a second one-row `acc`;
        // `USES[i]` lists the operands it touches, in field order. The
        // FMA is 2-term — `acc += x0 · b + x1 · c`, each first factor its
        // own buffer — so a freed second first factor and a freed second
        // key are rows. The base conversions lift `row` into `a`, plainly
        // from prime 1 (a rescale's dropped row) and centered from prime
        // 0 (a mod-raise); the last op is a rescale-folded forward of
        // `row` into `acc`.
        const ROWS: [usize; 8] = [2, 2, 2, 1, 8, 2, 2, 1];
        const USES: [&[usize]; 12] = [
            &[0],
            &[0],
            &[0, 1, 2],
            &[0, 1],
            &[0, 5, 6, 1, 2],
            &[0, 1],
            &[0],
            &[3, 0],
            &[0, 4],
            &[3, 0],
            &[0, 1],
            &[3, 7],
        ];
        // The views the transforms and base conversions take: `a` whole,
        // `row` under prime 1 and under prime 0.
        fn views_of(bufs: &[DeviceBuf; 8]) -> [PolyView; 3] {
            let [a, _, _, row, ..] = *bufs;
            [
                PolyView::new(a, 0..2),
                PolyView::new(row, 1..2),
                PolyView::new(row, 0..1),
            ]
        }
        fn device_op<'a>(i: usize, bufs: &'a [DeviceBuf; 8], views: &'a [PolyView; 3]) -> Op<'a> {
            let [a, b, c, _, digits, ..] = *bufs;
            let level = 2;
            match i {
                0 => Op::Forward {
                    views: &views[..1],
                    fold: None,
                },
                1 => Op::Inverse { views: &views[..1] },
                2 => Op::Multiply {
                    a,
                    b,
                    out: c,
                    level,
                },
                3 => Op::Pointwise {
                    acc: a,
                    rhs: b,
                    level,
                },
                4 => Op::Fma {
                    acc: a,
                    x: &bufs[5..7],
                    y: &bufs[1..3],
                    level,
                },
                5 => Op::AddSub {
                    acc: a,
                    rhs: b,
                    level,
                    subtract: true,
                },
                6 => Op::Negate { buf: a, level },
                7 => Op::BaseConvert {
                    src: &views[1..2],
                    dst: &views[..1],
                    centered: false,
                },
                8 => Op::Decompose {
                    src: a,
                    dst: digits,
                    level,
                    digits: 2,
                    gadget_bits: 20,
                },
                9 => Op::BaseConvert {
                    src: &views[2..],
                    dst: &views[..1],
                    centered: true,
                },
                10 => Op::Automorphism {
                    src: a,
                    dst: b,
                    level,
                    g: 3,
                },
                _ => Op::Forward {
                    views: &views[2..],
                    fold: Some(SubScale {
                        acc: &bufs[7..],
                        dropped: 1,
                    }),
                },
            }
        }
        // Host batch `i` over two stacked level-2 polys.
        fn host_op<'a>(i: usize, io: &'a mut [u64], rhs: &'a [u64]) -> Op<'a> {
            let io = LimbBatch::new(io, 16, 2);
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
        let none = [DeviceBuf::root(0, 0); 8];
        let none_views = views_of(&none);
        let labels: Vec<&str> = (0..4)
            .map(|i| host_op(i, &mut [], &[]).label())
            .chain((0..12).map(|i| device_op(i, &none, &none_views).label()))
            .collect();
        assert_eq!(
            labels.join(" "),
            "forward_batch inverse_batch pointwise_batch multiply_batch dev_forward \
             dev_inverse dev_multiply dev_pointwise dev_fma dev_addsub dev_negate \
             dev_baseconv dev_decompose dev_baseconv dev_automorphism dev_forward"
        );

        // Residues below every test prime, one seed per operand.
        let residues = |words: usize, seed: usize| -> Vec<u64> {
            let mix = |i: usize| ((i + 64 * seed) as u64).wrapping_mul(0x9e37_79b9);
            (0..words).map(|i| mix(i) % (1 << 40)).collect()
        };
        let fresh = |be: &dyn NttBackend| -> [DeviceBuf; 8] {
            let mem = be.memory();
            let mut mem = mem.lock().unwrap();
            let mut seed = 0;
            ROWS.map(|rows| {
                let buf = mem.alloc(rows * 16);
                seed += 1;
                mem.upload(buf, &residues(buf.len(), seed));
                buf
            })
        };
        let read = |be: &dyn NttBackend, bufs: &[DeviceBuf]| -> Vec<Vec<u64>> {
            let mem = be.memory();
            let mut mem = mem.lock().unwrap();
            let mut out: Vec<Vec<u64>> = bufs.iter().map(|b| vec![0; b.len()]).collect();
            for (&b, v) in bufs.iter().zip(&mut out) {
                mem.download(b, v);
            }
            out
        };
        // Arm a plan on every shard; read each shard's draw count.
        let arm = |mem: &Arc<Mutex<ShardedMemory>>, plan: Option<gpu_sim::FaultPlan>| {
            for sh in &lock_sharded(mem).shards {
                lock_mem(sh).gpu_mut().set_fault_plan(plan.clone());
            }
        };
        let draws = |mem: &Arc<Mutex<ShardedMemory>>| -> Vec<u64> {
            let m = lock_sharded(mem);
            let seen = |sh| lock_mem(sh).gpu().fault_plan().map(|p| p.ops_seen());
            m.shards.iter().map(|sh| seen(sh).unwrap_or(0)).collect()
        };

        let sim = SimBackend::titan_v();
        let sharded = ShardedBackend::titan_v(2, 16);
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
                    be.try_run(&plan, device_op(i, &x, &vx)).expect(&ctx);
                    assert!(
                        draws(mem).iter().all(|&d| d == 1),
                        "{ctx}: {:?}",
                        draws(mem)
                    );
                    arm(mem, None);
                }
            }
            for i in 0..4 {
                let ctx = format!("{} on {}", host_op(i, &mut [], &[]).label(), be.name());
                assert!(host_op(i, &mut [], &[]).is_host_batch(), "{ctx}");
                assert!(host_op(i, &mut [], &[]).handles().is_empty(), "{ctx}");
                let rhs = residues(4 * 16, 1);
                let (mut x, mut y) = (residues(4 * 16, 0), residues(4 * 16, 0));
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
    fn mixed_residency_multiply_overlaps_staging_upload_on_each_shard() {
        // The copy-stream prefetch at K = 2: a mixed-residency multiply
        // stages its host operand on every shard's copy stream, so the
        // compute already queued on that shard's compute stream overlaps
        // the upload. Judged on each shard's own timeline, so two shards
        // merely running at once cannot pass it.
        let ring = RnsRing::new(64, ntt_math::ntt_primes(50, 128, 3)).unwrap();
        let sample = |seed: i64| {
            let coeffs: Vec<i64> = (0..64).map(|i| (seed * (i + 2)) % 31 - 15).collect();
            RnsPoly::from_i64_coeffs(&ring, &coeffs)
        };
        let expected = Evaluator::cpu(&ring).multiply(&sample(7), &sample(9));

        let backend = ShardedBackend::titan_v(2, 64);
        let handle = backend.memory_handle();
        let mut ev = Evaluator::with_backend(&ring, Box::new(backend));
        let mut x = sample(7);
        ev.make_resident(&mut x);
        let mut w = sample(3);
        ev.make_resident(&mut w);
        ev.to_evaluation(&mut w);
        lock_sharded(&handle).sync_all();
        let before = lock_sharded(&handle).shard_timelines();

        for _ in 0..4 {
            ev.to_coefficient(&mut w);
            ev.to_evaluation(&mut w);
        }
        let mut prod = ev.multiply(&x, &sample(9));
        let after = lock_sharded(&handle).shard_timelines();
        for (s, (t0, t1)) in before.iter().zip(&after).enumerate() {
            let d = t1.since(t0);
            assert!(
                d.transfers >= 1,
                "shard {s}: the host operand crosses: {d:?}"
            );
            assert!(d.overlapped_s <= d.serialized_s + 1e-12, "shard {s}: {d}");
            assert!(
                d.serialized_s - d.overlapped_s > 5e-6,
                "shard {s}: staging upload must overlap queued compute ({d})"
            );
        }
        prod.sync();
        assert_eq!(prod, expected, "copy-stream prefetch changed the bits");
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
