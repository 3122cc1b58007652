//! Simulated global memory (GMEM).
//!
//! A single flat array of 64-bit words with bump allocation plus an
//! exact-size free list ([`Gmem::free`] / recycled by [`Gmem::alloc`]), so
//! long-lived device-resident workloads can release buffers without
//! growing the address space. Buffers are cheap handles (`Buf`) carrying
//! their base word address, so kernels can compute global addresses the
//! way CUDA kernels compute pointers.
//!
//! Host↔device traffic is charged through [`Gmem::upload`] /
//! [`Gmem::download`] into a [`TransferStats`] ledger — the accounting
//! behind the residency gates (`SimBackend` routes every staging copy
//! through these, so "zero steady-state transfers" is a counted fact, not
//! a claim). The raw [`Gmem::write`] / [`Gmem::slice`] accessors remain
//! for test scaffolding and verification reads, which model no bus
//! traffic.

use crate::stats::TransferStats;
use std::collections::HashMap;

/// A handle to an allocated GMEM region (word-addressed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Buf {
    base: usize,
    len: usize,
}

impl Buf {
    /// Base word address.
    #[inline]
    pub fn base(&self) -> usize {
        self.base
    }

    /// Length in 64-bit words.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` for zero-length buffers.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Global word address of element `i`.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `i` is out of bounds.
    #[inline]
    pub fn word(&self, i: usize) -> usize {
        debug_assert!(
            i < self.len,
            "buffer index {i} out of bounds ({})",
            self.len
        );
        self.base + i
    }

    /// A sub-buffer view (`offset..offset+len`).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the buffer.
    pub fn sub(&self, offset: usize, len: usize) -> Buf {
        assert!(offset + len <= self.len, "sub-buffer out of range");
        Buf {
            base: self.base + offset,
            len,
        }
    }
}

/// Simulated device global memory.
#[derive(Debug, Default)]
pub struct Gmem {
    words: Vec<u64>,
    /// Exact-size recycling bins: freed buffers keyed by length.
    free_lists: HashMap<usize, Vec<usize>>,
    transfers: TransferStats,
}

impl Gmem {
    /// Empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate `len` zeroed words, recycling an exact-size freed buffer
    /// when one is available (freshly bump-allocated otherwise).
    pub fn alloc(&mut self, len: usize) -> Buf {
        self.transfers.allocs += 1;
        if let Some(base) = self.free_lists.get_mut(&len).and_then(Vec::pop) {
            self.words[base..base + len].fill(0);
            return Buf { base, len };
        }
        let base = self.words.len();
        self.words.resize(base + len, 0);
        Buf { base, len }
    }

    /// Return a buffer to the free list for exact-size reuse. The handle
    /// must not be used afterwards (simulated use-after-free is not
    /// detected — handles are plain addresses, as on real hardware).
    pub fn free(&mut self, buf: Buf) {
        if buf.len == 0 {
            return;
        }
        self.transfers.frees += 1;
        self.free_lists.entry(buf.len).or_default().push(buf.base);
    }

    /// Allocate and initialize from host data (counted as one upload).
    pub fn alloc_from(&mut self, data: &[u64]) -> Buf {
        let buf = self.alloc(data.len());
        self.upload(buf, 0, data);
        buf
    }

    /// Host-side read of a whole buffer.
    pub fn slice(&self, buf: Buf) -> &[u64] {
        &self.words[buf.base..buf.base + buf.len]
    }

    /// Host-side mutable view of a whole buffer (an uncharged access,
    /// like [`Gmem::write`]).
    pub fn slice_mut(&mut self, buf: Buf) -> &mut [u64] {
        &mut self.words[buf.base..buf.base + buf.len]
    }

    /// Host-side write into a buffer at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if the write exceeds the buffer.
    pub fn write(&mut self, buf: Buf, offset: usize, data: &[u64]) {
        assert!(offset + data.len() <= buf.len, "write out of bounds");
        self.words[buf.base + offset..buf.base + offset + data.len()].copy_from_slice(data);
    }

    /// Host→device copy: like [`Gmem::write`], but charged to the transfer
    /// ledger. All staging copies of a residency-aware backend go through
    /// here so the gates can count them.
    ///
    /// # Panics
    ///
    /// Panics if the copy exceeds the buffer.
    pub fn upload(&mut self, buf: Buf, offset: usize, data: &[u64]) {
        self.transfers.uploads += 1;
        self.transfers.upload_words += data.len() as u64;
        self.write(buf, offset, data);
    }

    /// Device→host copy of the leading `out.len()` words of `buf`,
    /// charged to the transfer ledger.
    ///
    /// # Panics
    ///
    /// Panics if `out` is longer than the buffer.
    pub fn download(&mut self, buf: Buf, out: &mut [u64]) {
        self.transfers.downloads += 1;
        self.transfers.download_words += out.len() as u64;
        out.copy_from_slice(self.slice(buf.sub(0, out.len())));
    }

    /// Device-to-device copy (`src` → `dst`, full `src` length). Never
    /// crosses the simulated bus, so only the `d2d_copies` counter moves.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is shorter than `src` or the regions are distinct
    /// but overlapping (the simulated `cudaMemcpyDeviceToDevice` contract).
    pub fn copy(&mut self, src: Buf, dst: Buf) {
        assert!(src.len <= dst.len, "device copy exceeds destination");
        self.transfers.d2d_copies += 1;
        if src.base == dst.base {
            return;
        }
        assert!(
            src.base + src.len <= dst.base || dst.base + src.len <= src.base,
            "overlapping device copy"
        );
        self.words
            .copy_within(src.base..src.base + src.len, dst.base);
    }

    /// The host↔device transfer ledger since construction or the last
    /// [`Gmem::reset_transfer_stats`].
    pub fn transfer_stats(&self) -> TransferStats {
        self.transfers
    }

    /// Zero the transfer ledger (steady-state measurement windows).
    pub fn reset_transfer_stats(&mut self) {
        self.transfers = TransferStats::default();
    }

    /// Total words allocated (high-water mark; recycled buffers do not
    /// shrink it).
    pub fn allocated_words(&self) -> usize {
        self.words.len()
    }

    /// Raw word access for the engine.
    #[inline]
    pub(crate) fn word(&self, addr: usize) -> u64 {
        self.words[addr]
    }

    /// Raw word store for the engine.
    #[inline]
    pub(crate) fn set_word(&mut self, addr: usize, v: u64) {
        self.words[addr] = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_roundtrip() {
        let mut g = Gmem::new();
        let a = g.alloc(8);
        let b = g.alloc_from(&[1, 2, 3]);
        assert_eq!(a.len(), 8);
        assert_eq!(g.slice(a), &[0; 8]);
        assert_eq!(g.slice(b), &[1, 2, 3]);
        assert_eq!(b.base(), 8);
        assert_eq!(g.allocated_words(), 11);
    }

    #[test]
    fn write_and_word_addresses() {
        let mut g = Gmem::new();
        let a = g.alloc(4);
        g.write(a, 1, &[9, 9]);
        assert_eq!(g.slice(a), &[0, 9, 9, 0]);
        assert_eq!(a.word(2), a.base() + 2);
    }

    #[test]
    fn sub_buffer_addressing() {
        let mut g = Gmem::new();
        let a = g.alloc_from(&[10, 11, 12, 13, 14, 15]);
        let s = a.sub(2, 3);
        assert_eq!(g.slice(s), &[12, 13, 14]);
        assert_eq!(s.word(0), a.word(2));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sub_buffer_bounds_checked() {
        let mut g = Gmem::new();
        let a = g.alloc(4);
        a.sub(2, 3);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn write_bounds_checked() {
        let mut g = Gmem::new();
        let a = g.alloc(2);
        g.write(a, 1, &[1, 2]);
    }

    #[test]
    fn free_recycles_exact_size_and_zeroes() {
        let mut g = Gmem::new();
        let a = g.alloc_from(&[1, 2, 3, 4]);
        let high_water = g.allocated_words();
        g.free(a);
        let b = g.alloc(4);
        assert_eq!(b.base(), a.base(), "exact-size free buffer is recycled");
        assert_eq!(g.slice(b), &[0, 0, 0, 0], "recycled buffer is zeroed");
        assert_eq!(g.allocated_words(), high_water, "no address-space growth");
        // A different size cannot reuse the bin.
        g.free(b);
        let c = g.alloc(5);
        assert_eq!(c.base(), high_water);
    }

    #[test]
    fn transfer_ledger_counts_uploads_downloads_and_copies() {
        let mut g = Gmem::new();
        let a = g.alloc_from(&[7, 8, 9]); // 1 upload of 3 words
        let b = g.alloc(3);
        g.copy(a, b);
        let mut out = [0u64; 3];
        g.download(b, &mut out);
        assert_eq!(out, [7, 8, 9]);
        let t = g.transfer_stats();
        assert_eq!((t.uploads, t.upload_words), (1, 3));
        assert_eq!((t.downloads, t.download_words), (1, 3));
        assert_eq!(t.d2d_copies, 1);
        assert_eq!(t.allocs, 2);
        assert_eq!(t.host_transfers(), 2);
        let before = t;
        g.upload(a, 0, &[1]);
        assert_eq!(g.transfer_stats().since(&before).uploads, 1);
        g.reset_transfer_stats();
        assert_eq!(g.transfer_stats(), TransferStats::default());
    }

    #[test]
    #[should_panic(expected = "overlapping device copy")]
    fn overlapping_copy_rejected() {
        let mut g = Gmem::new();
        let a = g.alloc(8);
        g.copy(a.sub(0, 4), a.sub(2, 4));
    }
}
