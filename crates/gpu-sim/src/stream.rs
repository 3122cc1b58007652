//! Streams, events, and the overlapped-execution scheduler.
//!
//! Real CUDA devices execute kernels from *different* streams concurrently
//! whenever SM resources allow, while commands within one stream stay
//! ordered. HEAAN-style bootstrappable workloads (Jung et al., *HEAAN
//! Demystified*) win or lose on exactly this overlap: many small
//! per-ciphertext kernels that individually underfill the device.
//!
//! This module gives the simulator the same vocabulary:
//!
//! * [`Stream`] — an ordered command queue. Every kernel launch and
//!   host↔device transfer is charged to a stream; commands on one stream
//!   execute (in modeled time) back to back, commands on different streams
//!   may overlap.
//! * [`Event`] — a recorded point in a stream's timeline. Another stream
//!   can [`StreamScheduler::wait_event`] on it, which is how cross-stream
//!   data dependencies (producer on stream A, consumer on stream B) are
//!   expressed without serializing everything.
//! * [`StreamScheduler`] — admits kernels from all streams subject to
//!   modeled SM capacity: a launch occupying `w` SMs (derived from the
//!   [`crate::occupancy`] residency analysis) runs concurrently with other
//!   launches as long as the device's SMs are not oversubscribed; a launch
//!   whose full SM demand is not free waits for the earliest point it is
//!   (full-demand-or-wait, like the hardware's block-granular admission).
//!   Transfers contend for a single PCIe bus
//!   ([`crate::config::GpuConfig::pcie_bw`]).
//!
//! The *functional* execution model is unchanged — data still moves in
//! enqueue order under the device lock, so results are bit-identical to
//! the serialized schedule by construction (pinned by `tests/streams.rs`).
//! What streams change is the *performance* model: the scheduler tracks
//! both the serialized cost (the sum of every command's modeled duration —
//! what the old single-launch-lock model reported) and the overlapped
//! makespan, exposed as a [`DeviceTimeline`].
//!
//! # Example
//!
//! ```
//! use gpu_sim::{Gpu, GpuConfig};
//!
//! let mut gpu = Gpu::new(GpuConfig::titan_v());
//! let s1 = gpu.create_stream();
//! let s2 = gpu.create_stream();
//!
//! // Producer work on s1, then an event other streams can wait on.
//! gpu.set_active_stream(s1);
//! let buf = gpu.gmem.alloc(1024);
//! gpu.stream_upload(buf, 0, &vec![7u64; 1024]);
//! let ready = gpu.record_event(s1);
//!
//! // s2 must not start consuming before s1's upload has finished.
//! gpu.wait_event(s2, ready);
//! gpu.set_active_stream(s2);
//! let mut out = vec![0u64; 1024];
//! gpu.stream_download(buf, &mut out);
//! assert_eq!(out[0], 7);
//!
//! let t = gpu.timeline();
//! // The dependent schedule cannot beat the serialized one.
//! assert!(t.overlapped_s <= t.serialized_s + 1e-12);
//! ```

use std::collections::HashMap;

/// Handle to an ordered command queue on the simulated device.
///
/// Obtained from [`crate::Gpu::create_stream`]; [`Stream::DEFAULT`] always
/// exists (all legacy single-stream code runs on it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Stream(pub(crate) u64);

impl Stream {
    /// The default stream: always present, used by all launches that never
    /// select a stream explicitly.
    pub const DEFAULT: Stream = Stream(0);

    /// Raw id (diagnostics).
    #[inline]
    pub fn id(&self) -> u64 {
        self.0
    }
}

/// A recorded point in a stream's modeled timeline (a fence another
/// stream can wait on).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Completion time (seconds on the device's virtual clock) of all
    /// work enqueued on the recording stream before the event.
    time_s: f64,
}

impl Event {
    /// An event that is already complete at device time zero (waiting on
    /// it never delays anything).
    pub const DONE: Event = Event { time_s: 0.0 };

    /// The modeled completion time this event fences on.
    #[inline]
    pub fn time_s(&self) -> f64 {
        self.time_s
    }

    /// The later of two events — for coalescing several dependencies into
    /// one fence (e.g. a kernel reading two buffers).
    pub fn max(self, other: Event) -> Event {
        Event {
            time_s: self.time_s.max(other.time_s),
        }
    }
}

/// Start/end of one admitted command in modeled device time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeSpan {
    /// Modeled start time, seconds.
    pub start_s: f64,
    /// Modeled completion time, seconds.
    pub end_s: f64,
}

/// Aggregate modeled-time accounting for everything enqueued since
/// construction (or a [`StreamScheduler::reset`]).
///
/// `serialized_s` is what the pre-stream model charged: every command's
/// duration summed, as if one launch lock serialized the device.
/// `overlapped_s` is the makespan of the stream schedule — the quantity
/// the `figures streams` line and the `bench_guard` overlap gate compare.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DeviceTimeline {
    /// Sum of all command durations (the serialized schedule's cost).
    pub serialized_s: f64,
    /// Makespan: latest completion time across all streams.
    pub overlapped_s: f64,
    /// Kernel launches admitted.
    pub launches: u64,
    /// Host↔device transfers charged.
    pub transfers: u64,
}

impl DeviceTimeline {
    /// Ratio of serialized to overlapped time (> 1 means streams overlap;
    /// 1.0 when nothing ran or everything serialized).
    pub fn overlap(&self) -> f64 {
        if self.overlapped_s <= 0.0 {
            return 1.0;
        }
        self.serialized_s / self.overlapped_s
    }

    /// Counter-wise difference `self - earlier` for measurement windows.
    /// The overlapped component is the makespan *growth*, which is the
    /// window's schedule length provided the window starts from a drained
    /// device (the way the figures/bench harnesses use it).
    pub fn since(&self, earlier: &DeviceTimeline) -> DeviceTimeline {
        DeviceTimeline {
            serialized_s: self.serialized_s - earlier.serialized_s,
            overlapped_s: (self.overlapped_s - earlier.overlapped_s).max(0.0),
            launches: self.launches - earlier.launches,
            transfers: self.transfers - earlier.transfers,
        }
    }
}

impl std::fmt::Display for DeviceTimeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "serialized {:.1} us, overlapped {:.1} us ({:.2}x), {} launches, {} transfers",
            self.serialized_s * 1e6,
            self.overlapped_s * 1e6,
            self.overlap(),
            self.launches,
            self.transfers
        )
    }
}

/// One admitted kernel's SM reservation.
#[derive(Debug, Clone, Copy)]
struct Reservation {
    start_s: f64,
    end_s: f64,
    sms: u32,
}

/// Bound on retained reservations; beyond it the oldest-ending ones are
/// folded into the `floor` watermark (see [`StreamScheduler::gc`]).
const MAX_RESERVATIONS: usize = 512;

/// The stream scheduler: per-stream cursors, the SM reservation table,
/// and the shared PCIe bus cursor.
///
/// All times are on a single virtual device clock starting at zero.
#[derive(Debug, Clone)]
pub struct StreamScheduler {
    sm_count: u32,
    pcie_bw: f64,
    /// Per-stream completion time of the last enqueued command.
    cursors: HashMap<u64, f64>,
    /// Admitted kernels still relevant for capacity decisions.
    busy: Vec<Reservation>,
    /// PCIe bus FIFO: completion time of the last transfer.
    bus_free_s: f64,
    /// Times before this watermark are settled: evicted reservations and
    /// newly created streams may not schedule before it.
    floor_s: f64,
    next_stream: u64,
    timeline: DeviceTimeline,
}

impl StreamScheduler {
    /// Scheduler for a device with `sm_count` SMs and `pcie_bw` bytes/s of
    /// host↔device bandwidth.
    pub fn new(sm_count: u32, pcie_bw: f64) -> Self {
        let mut cursors = HashMap::new();
        cursors.insert(Stream::DEFAULT.0, 0.0);
        Self {
            sm_count: sm_count.max(1),
            pcie_bw: pcie_bw.max(1.0),
            cursors,
            busy: Vec::new(),
            bus_free_s: 0.0,
            floor_s: 0.0,
            next_stream: 0,
            timeline: DeviceTimeline::default(),
        }
    }

    /// A new stream. Its timeline starts at the settled-time watermark
    /// (work already completed device-wide cannot be raced by a stream
    /// created afterwards).
    pub fn create_stream(&mut self) -> Stream {
        self.next_stream += 1;
        self.cursors.insert(self.next_stream, self.floor_s);
        Stream(self.next_stream)
    }

    /// Destroy a stream (its already-enqueued work still counts; the
    /// default stream is never destroyed).
    pub fn destroy_stream(&mut self, s: Stream) {
        if s != Stream::DEFAULT {
            self.cursors.remove(&s.0);
        }
    }

    /// Completion time of everything enqueued on `s` so far.
    pub fn cursor(&self, s: Stream) -> f64 {
        self.cursors.get(&s.0).copied().unwrap_or(self.floor_s)
    }

    fn cursor_mut(&mut self, s: Stream) -> &mut f64 {
        let floor = self.floor_s;
        self.cursors.entry(s.0).or_insert(floor)
    }

    /// Record an event on `s`: a fence at the completion of all work
    /// enqueued on `s` so far.
    pub fn record_event(&mut self, s: Stream) -> Event {
        Event {
            time_s: self.cursor(s),
        }
    }

    /// Make `s` wait for `e`: later commands on `s` start no earlier than
    /// the event's completion time. Waits only ever push a cursor forward,
    /// so cross-stream waits cannot deadlock by construction.
    pub fn wait_event(&mut self, s: Stream, e: Event) {
        let c = self.cursor_mut(s);
        *c = c.max(e.time_s);
    }

    /// Minimum free SM capacity over `[from, to)`.
    fn min_free(&self, from: f64, to: f64) -> u32 {
        // Sweep reservation boundaries inside the window.
        let mut points: Vec<f64> = vec![from];
        for r in &self.busy {
            if r.start_s > from && r.start_s < to {
                points.push(r.start_s);
            }
        }
        let mut min_free = u32::MAX;
        for &t in &points {
            let used: u32 = self
                .busy
                .iter()
                .filter(|r| r.start_s <= t && t < r.end_s)
                .map(|r| r.sms)
                .sum();
            min_free = min_free.min(self.sm_count.saturating_sub(used));
        }
        min_free
    }

    /// Admit a kernel of modeled duration `duration_s` demanding
    /// `want_sms` SMs on stream `s`. The kernel starts at the earliest
    /// time ≥ the stream cursor at which its full SM demand is free for
    /// the whole duration (full-demand-or-wait, like the hardware's
    /// block-granular admission), and the stream cursor advances to its
    /// completion.
    ///
    /// Because every command starts no later than the current makespan
    /// (cursors, event fences, and capacity waits all point at completed
    /// work), the makespan grows by at most `duration_s` per command — so
    /// the overlapped schedule can never exceed the serialized one, an
    /// invariant `tests/streams.rs` pins.
    pub fn enqueue_kernel(&mut self, s: Stream, duration_s: f64, want_sms: u32) -> TimeSpan {
        let want = want_sms.clamp(1, self.sm_count);
        let ready = self.cursor(s).max(self.floor_s);
        self.timeline.launches += 1;
        self.timeline.serialized_s += duration_s;
        if duration_s <= 0.0 {
            return TimeSpan {
                start_s: ready,
                end_s: ready,
            };
        }

        // Candidate start times: the stream's ready time plus every
        // reservation boundary after it (free capacity only changes
        // there). The latest reservation end always admits (idle device),
        // so the search cannot fail.
        let mut cands: Vec<f64> = vec![ready];
        for r in &self.busy {
            if r.start_s > ready {
                cands.push(r.start_s);
            }
            if r.end_s > ready {
                cands.push(r.end_s);
            }
        }
        cands.sort_by(f64::total_cmp);
        cands.dedup();

        let start = cands
            .iter()
            .copied()
            .find(|&t| self.min_free(t, t + duration_s) >= want)
            .expect("idle device admits any kernel");
        let end = start + duration_s;
        self.busy.push(Reservation {
            start_s: start,
            end_s: end,
            sms: want,
        });
        *self.cursor_mut(s) = end;
        self.timeline.overlapped_s = self.timeline.overlapped_s.max(end);
        self.gc();
        TimeSpan {
            start_s: start,
            end_s: end,
        }
    }

    /// Charge a host↔device transfer of `words` 64-bit words to stream
    /// `s`. Transfers contend for the single PCIe bus (FIFO) and overlap
    /// with kernels on other streams — the window device-resident keygen
    /// exploits to hide the initial upload behind first encrypts.
    pub fn enqueue_transfer(&mut self, s: Stream, words: usize) -> TimeSpan {
        let duration = words as f64 * 8.0 / self.pcie_bw + crate::calibrate::PCIE_LATENCY_S;
        let start = self.cursor(s).max(self.bus_free_s).max(self.floor_s);
        let end = start + duration;
        self.bus_free_s = end;
        *self.cursor_mut(s) = end;
        self.timeline.transfers += 1;
        self.timeline.serialized_s += duration;
        self.timeline.overlapped_s = self.timeline.overlapped_s.max(end);
        TimeSpan {
            start_s: start,
            end_s: end,
        }
    }

    /// Charge an inter-device (peer-to-peer) transfer of `words` 64-bit
    /// words to stream `s`, over a link of `link_bw` bytes/s with a fixed
    /// `latency_s` per message. Unlike [`StreamScheduler::enqueue_transfer`]
    /// this does not contend for the host PCIe bus — peer traffic rides the
    /// device-to-device path — but it is ordered within the stream like any
    /// other command, so compute waiting on remote rows stalls behind it.
    /// Both endpoints of a sharded copy charge their own scheduler, which
    /// is how an all-gather occupies every participating device.
    pub fn enqueue_link_transfer(
        &mut self,
        s: Stream,
        words: usize,
        link_bw: f64,
        latency_s: f64,
    ) -> TimeSpan {
        let duration = words as f64 * 8.0 / link_bw.max(1.0) + latency_s.max(0.0);
        let start = self.cursor(s).max(self.floor_s);
        let end = start + duration;
        *self.cursor_mut(s) = end;
        self.timeline.transfers += 1;
        self.timeline.serialized_s += duration;
        self.timeline.overlapped_s = self.timeline.overlapped_s.max(end);
        TimeSpan {
            start_s: start,
            end_s: end,
        }
    }

    /// Device-wide barrier (the modeled `cudaDeviceSynchronize`): every
    /// stream's cursor and the bus advance to the current makespan, so
    /// work enqueued afterwards starts no earlier than everything already
    /// admitted. Measurement windows call this first — then the makespan
    /// growth [`DeviceTimeline::since`] reports *is* the window's
    /// schedule length, with no slack for new work to hide under the
    /// previous schedule's tail.
    pub fn sync_all(&mut self) {
        let t = self.timeline.overlapped_s;
        for c in self.cursors.values_mut() {
            *c = c.max(t);
        }
        self.bus_free_s = self.bus_free_s.max(t);
        self.floor_s = self.floor_s.max(t);
        self.busy.retain(|r| r.end_s > t);
    }

    /// Accounting since construction or the last [`StreamScheduler::reset`].
    pub fn timeline(&self) -> DeviceTimeline {
        self.timeline
    }

    /// Drop settled state and restart the virtual clock at zero.
    pub fn reset(&mut self) {
        self.busy.clear();
        self.bus_free_s = 0.0;
        self.floor_s = 0.0;
        for c in self.cursors.values_mut() {
            *c = 0.0;
        }
        self.timeline = DeviceTimeline::default();
    }

    /// Bound the reservation table: reservations that ended before every
    /// stream's cursor can no longer affect admission; beyond the hard cap
    /// the oldest-ending reservations are folded into the settled-time
    /// watermark (new work is simply not scheduled before it).
    fn gc(&mut self) {
        let settled = self
            .cursors
            .values()
            .copied()
            .fold(f64::INFINITY, f64::min)
            .min(self.bus_free_s);
        if settled.is_finite() {
            self.busy.retain(|r| r.end_s > settled);
        }
        if self.busy.len() > MAX_RESERVATIONS {
            self.busy.sort_by(|a, b| f64::total_cmp(&a.end_s, &b.end_s));
            let drop_n = self.busy.len() - MAX_RESERVATIONS;
            let new_floor = self.busy[drop_n - 1].end_s;
            self.busy.drain(..drop_n);
            self.floor_s = self.floor_s.max(new_floor);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched() -> StreamScheduler {
        StreamScheduler::new(4, 12.0e9)
    }

    #[test]
    fn same_stream_serializes() {
        let mut s = sched();
        let a = s.enqueue_kernel(Stream::DEFAULT, 1.0, 1);
        let b = s.enqueue_kernel(Stream::DEFAULT, 1.0, 1);
        assert_eq!(a.end_s, b.start_s);
        let t = s.timeline();
        assert!((t.serialized_s - 2.0).abs() < 1e-12);
        assert!((t.overlapped_s - 2.0).abs() < 1e-12);
        assert!((t.overlap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn independent_streams_overlap_within_capacity() {
        let mut s = sched();
        let s1 = s.create_stream();
        let s2 = s.create_stream();
        let a = s.enqueue_kernel(s1, 1.0, 2);
        let b = s.enqueue_kernel(s2, 1.0, 2);
        assert_eq!(a.start_s, 0.0);
        assert_eq!(b.start_s, 0.0, "2+2 SMs fit on 4");
        let t = s.timeline();
        assert!((t.overlapped_s - 1.0).abs() < 1e-12);
        assert!((t.overlap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn oversubscription_stretches_or_delays() {
        let mut s = sched();
        let s1 = s.create_stream();
        let s2 = s.create_stream();
        s.enqueue_kernel(s1, 1.0, 4); // fills the device
        let b = s.enqueue_kernel(s2, 1.0, 4);
        assert!(b.start_s >= 1.0, "no capacity before the first finishes");
    }

    #[test]
    fn insufficient_capacity_delays_to_full_demand() {
        let mut s = sched();
        let s1 = s.create_stream();
        let s2 = s.create_stream();
        s.enqueue_kernel(s1, 10.0, 3); // leaves 1 SM free
        let b = s.enqueue_kernel(s2, 1.0, 2);
        // Full-demand-or-wait: 2 SMs are only free once the big kernel
        // ends; a 1-SM kernel would have slotted in at t = 0 instead.
        assert_eq!(b.start_s, 10.0);
        let s3 = s.create_stream();
        let c = s.enqueue_kernel(s3, 1.0, 1);
        assert_eq!(c.start_s, 0.0);
    }

    #[test]
    fn event_orders_across_streams() {
        let mut s = sched();
        let s1 = s.create_stream();
        let s2 = s.create_stream();
        s.enqueue_kernel(s1, 2.0, 1);
        let e = s.record_event(s1);
        assert_eq!(e.time_s(), 2.0);
        s.wait_event(s2, e);
        let b = s.enqueue_kernel(s2, 1.0, 1);
        assert!(b.start_s >= 2.0);
        // A second wait on an earlier event never moves the cursor back.
        s.wait_event(s2, Event::DONE);
        assert_eq!(s.cursor(s2), b.end_s);
    }

    #[test]
    fn transfers_share_one_bus() {
        let mut s = sched();
        let s1 = s.create_stream();
        let s2 = s.create_stream();
        let a = s.enqueue_transfer(s1, 1 << 20);
        let b = s.enqueue_transfer(s2, 1 << 20);
        assert_eq!(b.start_s, a.end_s, "bus is FIFO");
        // A kernel on a third stream overlaps the bus traffic.
        let s3 = s.create_stream();
        let k = s.enqueue_kernel(s3, 1.0, 1);
        assert_eq!(k.start_s, 0.0);
        assert_eq!(s.timeline().transfers, 2);
    }

    #[test]
    fn link_transfers_bypass_the_pcie_bus() {
        let mut s = sched();
        let s1 = s.create_stream();
        let s2 = s.create_stream();
        // Saturate the PCIe bus on s1…
        let host = s.enqueue_transfer(s1, 1 << 20);
        // …a peer-to-peer move on s2 starts immediately regardless.
        let link = s.enqueue_link_transfer(s2, 1 << 20, 10.0e9, 2.0e-6);
        assert_eq!(link.start_s, 0.0, "link path does not queue on PCIe");
        assert!(host.end_s > 0.0);
        // Duration = words*8/bw + latency.
        let expect = (1u64 << 20) as f64 * 8.0 / 10.0e9 + 2.0e-6;
        assert!((link.end_s - link.start_s - expect).abs() < 1e-12);
        // But within one stream the link move is ordered like any command.
        let k = s.enqueue_kernel(s2, 1.0, 1);
        assert!(k.start_s >= link.end_s);
        assert_eq!(s.timeline().transfers, 2);
    }

    #[test]
    fn overlapped_never_exceeds_serialized() {
        let mut s = sched();
        let streams: Vec<Stream> = (0..3).map(|_| s.create_stream()).collect();
        for i in 0..30 {
            let st = streams[i % 3];
            if i % 5 == 0 {
                s.enqueue_transfer(st, 4096);
            } else {
                s.enqueue_kernel(st, 0.1 * (1 + i % 4) as f64, 1 + (i % 4) as u32);
            }
        }
        let t = s.timeline();
        assert!(t.overlapped_s <= t.serialized_s + 1e-9);
        assert!(t.overlap() >= 1.0);
    }

    #[test]
    fn gc_bounds_reservations_and_keeps_monotone_time() {
        let mut s = sched();
        let s1 = s.create_stream();
        for _ in 0..(MAX_RESERVATIONS * 3) {
            s.enqueue_kernel(s1, 1e-6, 1);
        }
        assert!(s.busy.len() <= MAX_RESERVATIONS + 1);
        // A stream created after eviction starts at the watermark, not 0.
        let late = s.create_stream();
        assert!(s.cursor(late) >= 0.0);
        let before = s.timeline().overlapped_s;
        s.enqueue_kernel(late, 1e-6, 1);
        assert!(s.timeline().overlapped_s >= before);
    }

    #[test]
    fn reset_zeroes_everything() {
        let mut s = sched();
        let s1 = s.create_stream();
        s.enqueue_kernel(s1, 1.0, 1);
        s.enqueue_transfer(s1, 1024);
        s.reset();
        assert_eq!(s.timeline(), DeviceTimeline::default());
        assert_eq!(s.cursor(s1), 0.0);
    }

    #[test]
    fn destroyed_streams_are_forgotten() {
        let mut s = sched();
        let s1 = s.create_stream();
        s.enqueue_kernel(s1, 1.0, 1);
        s.destroy_stream(s1);
        s.destroy_stream(Stream::DEFAULT); // no-op
        assert!(s.cursors.contains_key(&Stream::DEFAULT.0));
        assert!(!s.cursors.contains_key(&s1.0));
    }

    #[test]
    fn sync_all_drains_before_a_window() {
        let mut s = sched();
        let s1 = s.create_stream();
        let s2 = s.create_stream();
        s.enqueue_kernel(s1, 1.0, 1); // setup touches only s1
        s.sync_all();
        let t0 = s.timeline();
        // s2 was idle, but after the barrier it cannot start under the
        // setup schedule's tail…
        let k = s.enqueue_kernel(s2, 1.0, 1);
        assert!(k.start_s >= 1.0);
        // …so the window's makespan growth equals its schedule length.
        let d = s.timeline().since(&t0);
        assert!((d.overlapped_s - 1.0).abs() < 1e-12, "window {d:?}");
        // The bus is fenced too.
        let tr = s.enqueue_transfer(s1, 1);
        assert!(tr.start_s >= 1.0);
    }

    #[test]
    fn timeline_since_windows() {
        let mut s = sched();
        let s1 = s.create_stream();
        s.enqueue_kernel(s1, 1.0, 1);
        let t0 = s.timeline();
        s.enqueue_kernel(s1, 2.0, 1);
        let d = s.timeline().since(&t0);
        assert!((d.serialized_s - 2.0).abs() < 1e-12);
        assert!((d.overlapped_s - 2.0).abs() < 1e-12);
        assert_eq!(d.launches, 1);
    }
}
