//! Device-side layout of a batched NTT problem.
//!
//! A batch is `np` polynomials of degree `N`, one per RNS prime, stored
//! row-major in GMEM, plus the per-prime twiddle tables (values and Shoup
//! companions, bit-reversed order) — the precomputed data whose size
//! drives the paper's bandwidth analysis. Prime moduli travel as host
//! constants (CMEM in the paper's terms: broadcast, no DRAM traffic).
//!
//! Two allocation paths:
//!
//! * [`DeviceBatch::upload`] — raw GMEM buffers on a bare [`Gpu`]
//!   (self-contained micro-experiments and tests);
//! * [`DeviceBatch::upload_on`] / [`DeviceBatch::sequential_on`] — through
//!   the [`SimMemory`] **handle layer** ([`DeviceBuf`] handles + counted
//!   transfer ledger + stream-charged uploads), the same allocator the
//!   `SimBackend` residency layer uses. The figure experiments run on
//!   this path, so their setup traffic shows up in the same ledger and
//!   device timeline as everything else.

use crate::backend::SimMemory;
use crate::rows::RowTable;
use gpu_sim::{Buf, Gpu};
use ntt_core::backend::{DeviceBuf, DeviceMemory};
use ntt_core::poly::RingError;
use ntt_core::NttTable;

/// A batched NTT problem resident in simulated GMEM.
#[derive(Debug)]
pub struct DeviceBatch {
    n: usize,
    log_n: u32,
    np: usize,
    moduli: Vec<u64>,
    /// Host copies of the tables (for verification and OT construction).
    tables: Vec<NttTable>,
    /// `np × n` data words (in-place transform target).
    pub data: Buf,
    /// `np × n` forward twiddle values, bit-reversed order.
    pub twiddles: Buf,
    /// `np × n` Shoup companions.
    pub companions: Buf,
    /// Handle-layer identities of `[data, twiddles, companions]` when the
    /// batch was allocated through a [`SimMemory`] (None on the raw path).
    handles: Option<[DeviceBuf; 3]>,
    /// RNS prime index of each data row (identity unless remapped with
    /// [`DeviceBatch::with_row_prime`]).
    row_prime: Vec<usize>,
    /// Pristine input copy (host side) for verification.
    input: Vec<Vec<u64>>,
}

/// Host-side staging for one batch: tables plus the flat upload images.
struct HostBatch {
    tables: Vec<NttTable>,
    primes: Vec<u64>,
    data: Vec<u64>,
    tw: Vec<u64>,
    twc: Vec<u64>,
}

fn build_host(log_n: u32, prime_bits: u32, rows: &[Vec<u64>]) -> Result<HostBatch, RingError> {
    let n = 1usize << log_n;
    let np = rows.len();
    assert!(np > 0, "batch needs at least one prime");
    let primes = ntt_math::ntt_primes(prime_bits, 2 * n as u64, np);
    let tables = primes
        .iter()
        .map(|&p| NttTable::new(n, p).map_err(RingError::from))
        .collect::<Result<Vec<_>, _>>()?;

    let mut data = Vec::with_capacity(np * n);
    let mut tw = Vec::with_capacity(np * n);
    let mut twc = Vec::with_capacity(np * n);
    for (row, table) in rows.iter().zip(&tables) {
        assert_eq!(row.len(), n, "row length must equal N");
        data.extend_from_slice(row);
        tw.extend_from_slice(table.forward_values());
        twc.extend_from_slice(table.forward_companions());
    }
    Ok(HostBatch {
        tables,
        primes,
        data,
        tw,
        twc,
    })
}

/// Upload `host` as a fresh device table on the active stream, so the copy
/// crosses the modeled PCIe bus (the device timeline) as well as the
/// transfer ledger. [`gpu_sim::Gmem::alloc_from`] counts the upload but
/// bypasses the bus, which would make table setup look free.
pub(crate) fn upload_table(gpu: &mut Gpu, host: &[u64]) -> Buf {
    let buf = gpu.gmem.alloc(host.len());
    gpu.stream_upload(buf, 0, host);
    buf
}

/// Deterministic pseudo-input rows
/// (`x_i = (i * 0x9E3779B97F4A7C15) mod p` per prime).
fn sequential_rows(n: usize, primes: &[u64]) -> Vec<Vec<u64>> {
    primes
        .iter()
        .map(|&p| {
            (0..n as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % p)
                .collect()
        })
        .collect()
}

impl DeviceBatch {
    /// Upload a batch with caller-provided per-prime input rows.
    ///
    /// # Errors
    ///
    /// Propagates table construction failures ([`RingError`]).
    ///
    /// # Panics
    ///
    /// Panics if `rows.len() != np` or any row length differs from `N`.
    pub fn upload(
        gpu: &mut Gpu,
        log_n: u32,
        prime_bits: u32,
        rows: Vec<Vec<u64>>,
    ) -> Result<Self, RingError> {
        let host = build_host(log_n, prime_bits, &rows)?;
        let data = gpu.gmem.alloc_from(&host.data);
        let twiddles = gpu.gmem.alloc_from(&host.tw);
        let companions = gpu.gmem.alloc_from(&host.twc);
        Ok(Self {
            n: 1 << log_n,
            log_n,
            np: rows.len(),
            moduli: host.primes,
            tables: host.tables,
            data,
            twiddles,
            companions,
            handles: None,
            row_prime: (0..rows.len()).collect(),
            input: rows,
        })
    }

    /// Upload a batch through the [`SimMemory`] handle layer: buffers are
    /// allocated as [`DeviceBuf`] handles and staged with counted,
    /// stream-charged transfers — the same path `SimBackend`-resident
    /// polynomials take. The raw GMEM views stay available in
    /// [`DeviceBatch::data`] and friends for driving kernels directly.
    ///
    /// # Errors
    ///
    /// Propagates table construction failures ([`RingError`]).
    ///
    /// # Panics
    ///
    /// Panics if `rows.len() != np` or any row length differs from `N`.
    pub fn upload_on(
        mem: &mut SimMemory,
        log_n: u32,
        prime_bits: u32,
        rows: Vec<Vec<u64>>,
    ) -> Result<Self, RingError> {
        let host = build_host(log_n, prime_bits, &rows)?;
        let mut stage = |image: &[u64]| -> (DeviceBuf, Buf) {
            let h = mem.alloc(image.len());
            mem.upload(h, image);
            let raw = mem.raw_buf(h);
            (h, raw)
        };
        let (dh, data) = stage(&host.data);
        let (th, twiddles) = stage(&host.tw);
        let (ch, companions) = stage(&host.twc);
        Ok(Self {
            n: 1 << log_n,
            log_n,
            np: rows.len(),
            moduli: host.primes,
            tables: host.tables,
            data,
            twiddles,
            companions,
            handles: Some([dh, th, ch]),
            row_prime: (0..rows.len()).collect(),
            input: rows,
        })
    }

    /// Override the row→prime mapping (e.g. a stacked buffer-of-digits
    /// layout where row `r` carries prime `r % level`). Kernels draw their
    /// modulus and twiddle slice from this map instead of assuming row
    /// `i` ↔ prime `i`.
    ///
    /// # Panics
    ///
    /// Panics if the map's length differs from `np` or any entry is out of
    /// range.
    pub fn with_row_prime(mut self, map: Vec<usize>) -> Self {
        assert_eq!(map.len(), self.np, "row map must cover every row");
        assert!(map.iter().all(|&p| p < self.np), "prime index out of range");
        self.row_prime = map;
        self
    }

    /// Convenience batch with deterministic pseudo-input
    /// (`x_i = (i * 0x9E3779B97F4A7C15) mod p` per prime).
    ///
    /// # Errors
    ///
    /// Propagates table construction failures.
    pub fn sequential(
        gpu: &mut Gpu,
        log_n: u32,
        np: usize,
        prime_bits: u32,
    ) -> Result<Self, RingError> {
        let n = 1usize << log_n;
        let primes = ntt_math::ntt_primes(prime_bits, 2 * n as u64, np);
        Self::upload(gpu, log_n, prime_bits, sequential_rows(n, &primes))
    }

    /// [`DeviceBatch::sequential`] through the handle layer (see
    /// [`DeviceBatch::upload_on`]).
    ///
    /// # Errors
    ///
    /// Propagates table construction failures.
    pub fn sequential_on(
        mem: &mut SimMemory,
        log_n: u32,
        np: usize,
        prime_bits: u32,
    ) -> Result<Self, RingError> {
        let n = 1usize << log_n;
        let primes = ntt_math::ntt_primes(prime_bits, 2 * n as u64, np);
        Self::upload_on(mem, log_n, prime_bits, sequential_rows(n, &primes))
    }

    /// The handle-layer identities of `[data, twiddles, companions]`
    /// (`None` when the batch was allocated on the raw GMEM path).
    pub fn handles(&self) -> Option<&[DeviceBuf; 3]> {
        self.handles.as_ref()
    }

    /// Transform size `N`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// `log2 N`.
    #[inline]
    pub fn log_n(&self) -> u32 {
        self.log_n
    }

    /// Batch size `np`.
    #[inline]
    pub fn np(&self) -> usize {
        self.np
    }

    /// The prime moduli (host constants; CMEM-like broadcast access).
    #[inline]
    pub fn moduli(&self) -> &[u64] {
        &self.moduli
    }

    /// Host-side table for prime `i` (verification, OT table building).
    #[inline]
    pub fn table(&self, i: usize) -> &NttTable {
        &self.tables[i]
    }

    /// RNS prime index of each data row.
    #[inline]
    pub fn row_prime(&self) -> &[usize] {
        &self.row_prime
    }

    /// The data rows back to back, as the kernels address them.
    pub(crate) fn rows(&self) -> RowTable {
        RowTable::contiguous(self.data, self.n(), &self.row_prime)
    }

    /// The pristine input rows.
    #[inline]
    pub fn input(&self) -> &[Vec<u64>] {
        &self.input
    }

    /// Reset device data to the pristine input (transforms run in place).
    pub fn reset_data(&self, gpu: &mut Gpu) {
        for (i, row) in self.input.iter().enumerate() {
            gpu.gmem.write(self.data, i * self.n, row);
        }
    }

    /// Download the (transformed) data rows from the device.
    pub fn download(&self, gpu: &Gpu) -> Vec<Vec<u64>> {
        (0..self.np)
            .map(|i| gpu.gmem.slice(self.data.sub(i * self.n, self.n)).to_vec())
            .collect()
    }

    /// The expected forward-NTT output (scalar reference, bit-reversed
    /// order) of every row under its mapped prime, computed on the host.
    pub fn expected_ntt(&self) -> Vec<Vec<u64>> {
        self.expected(ntt_core::ct::ntt)
    }

    /// The expected inverse-NTT output (scalar reference applied to the
    /// input rows as bit-reversed-domain values) of every row under its
    /// mapped prime, computed on the host.
    pub fn expected_intt(&self) -> Vec<Vec<u64>> {
        self.expected(ntt_core::ct::intt)
    }

    fn expected(&self, transform: fn(&mut [u64], &NttTable)) -> Vec<Vec<u64>> {
        self.input
            .iter()
            .zip(&self.row_prime)
            .map(|(row, &prime)| {
                let mut a = row.clone();
                transform(&mut a, &self.tables[prime]);
                a
            })
            .collect()
    }

    /// Upload the inverse twiddle tables `Ψ⁻¹` (values, companions) for one
    /// harness run of an inverse kernel, through [`upload_table`]. The
    /// caller frees both buffers after the run.
    pub(crate) fn upload_inverse_tables(&self, gpu: &mut Gpu) -> (Buf, Buf) {
        let mut itw = Vec::with_capacity(self.np * self.n);
        let mut itwc = Vec::with_capacity(self.np * self.n);
        for t in &self.tables {
            itw.extend_from_slice(t.inverse_values());
            itwc.extend_from_slice(t.inverse_companions());
        }
        (upload_table(gpu, &itw), upload_table(gpu, &itwc))
    }

    /// Per-prime twiddle-table bytes (values + companions) on the device.
    pub fn table_bytes(&self) -> usize {
        self.np * self.n * 16
    }

    /// Data bytes (one batch of polynomials).
    pub fn data_bytes(&self) -> usize {
        self.np * self.n * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::GpuConfig;

    #[test]
    fn upload_download_roundtrip() {
        let mut gpu = Gpu::new(GpuConfig::titan_v());
        let b = DeviceBatch::sequential(&mut gpu, 6, 3, 59).unwrap();
        assert_eq!(b.n(), 64);
        assert_eq!(b.np(), 3);
        let rows = b.download(&gpu);
        assert_eq!(rows.len(), 3);
        assert_eq!(&rows[0], &b.input()[0]);
        // Moduli are distinct NTT-friendly primes.
        for &p in b.moduli() {
            assert!(ntt_math::is_prime(p));
            assert_eq!(p % 128, 1);
        }
    }

    #[test]
    fn reset_restores_input() {
        let mut gpu = Gpu::new(GpuConfig::titan_v());
        let b = DeviceBatch::sequential(&mut gpu, 5, 2, 60).unwrap();
        // Clobber device data, then reset.
        gpu.gmem.write(b.data, 0, &vec![7u64; 32]);
        b.reset_data(&mut gpu);
        assert_eq!(b.download(&gpu), b.input());
    }

    #[test]
    fn expected_ntt_matches_reference_shape() {
        let mut gpu = Gpu::new(GpuConfig::titan_v());
        let b = DeviceBatch::sequential(&mut gpu, 4, 2, 60).unwrap();
        let exp = b.expected_ntt();
        assert_eq!(exp.len(), 2);
        assert_eq!(exp[0].len(), 16);
        // Forward NTT is invertible: applying intt recovers the input.
        let mut back = exp[1].clone();
        ntt_core::ct::intt(&mut back, b.table(1));
        assert_eq!(back, b.input()[1]);
    }

    #[test]
    fn handle_layer_batch_matches_raw_path_and_counts_transfers() {
        let mut mem = SimMemory::new(GpuConfig::titan_v());
        let b = DeviceBatch::sequential_on(&mut mem, 6, 3, 59).unwrap();
        let handles = *b.handles().expect("handle-layer batch carries ids");
        assert_eq!(handles[0].len(), 3 * 64);
        // The three staging uploads land in the counted ledger…
        let stats = mem.stats();
        assert_eq!(stats.uploads, 3);
        assert_eq!(stats.allocs, 3);
        // …and in the modeled device timeline (stream-charged).
        assert_eq!(mem.gpu().timeline().transfers, 3);
        // Raw views still drive kernels / reads like the raw path.
        assert_eq!(mem.gpu().gmem.slice(b.data.sub(0, 64)), &b.input()[0][..]);
        // Same bits as the raw-path batch.
        let mut gpu = Gpu::new(GpuConfig::titan_v());
        let raw = DeviceBatch::sequential(&mut gpu, 6, 3, 59).unwrap();
        assert_eq!(mem.gpu().gmem.slice(b.data), gpu.gmem.slice(raw.data));
    }

    #[test]
    fn byte_accounting() {
        let mut gpu = Gpu::new(GpuConfig::titan_v());
        let b = DeviceBatch::sequential(&mut gpu, 10, 4, 60).unwrap();
        assert_eq!(b.data_bytes(), 4 * 1024 * 8);
        assert_eq!(b.table_bytes(), 4 * 1024 * 16);
    }
}
