//! GPU-simulator pipeline tests: every kernel family must be bit-exact
//! against the scalar reference on randomized shapes, and the simulator's
//! bookkeeping must satisfy its invariants.

use ntt_warp::gpu::smem::SmemConfig;
use ntt_warp::gpu::{batch::DeviceBatch, dft, high_radix, radix2, smem};
use ntt_warp::sim::{Gpu, GpuConfig};
use proptest::prelude::*;

fn setup(log_n: u32, np: usize) -> (Gpu, DeviceBatch) {
    let mut gpu = Gpu::new(GpuConfig::titan_v());
    let batch = DeviceBatch::sequential(&mut gpu, log_n, np, 60).unwrap();
    (gpu, batch)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn radix2_bit_exact_random_shapes(log_n in 4u32..=9, np in 1usize..=3) {
        let (mut gpu, batch) = setup(log_n, np);
        let rep = radix2::run(&mut gpu, &batch, radix2::ModMul::Shoup);
        prop_assert!(rep.verify(&gpu, &batch));
    }

    #[test]
    fn high_radix_bit_exact_random_shapes(
        log_n in 4u32..=9,
        log_r in 1u32..=6,
        np in 1usize..=3
    ) {
        let (mut gpu, batch) = setup(log_n, np);
        let r = 1usize << log_r.min(log_n);
        let rep = high_radix::run(&mut gpu, &batch, r);
        prop_assert!(rep.verify(&gpu, &batch));
    }

    /// Forward and inverse SMEM transforms on one random draw: the
    /// forward matches `ct::ntt`, the inverse undoes it, and the inverse
    /// on raw input matches `ct::intt` — every row under its mapped
    /// prime, including the stacked digit layout (2·np rows, row `r`
    /// under prime `r % np`) — for a two-kernel split and, when
    /// `whole_rows` is drawn, also for the degenerate `N × 1` split that
    /// runs every row whole in one packed launch per direction.
    #[test]
    fn smem_bit_exact_random_configs(
        log_n in 5u32..=10,
        split in 1u32..=8,
        t_sel in 0usize..3,
        coalesced in any::<bool>(),
        preload in any::<bool>(),
        ot in 0u32..=2,
        np in 1usize..=2,
        stacked in any::<bool>(),
        whole_rows in any::<bool>()
    ) {
        let (mut gpu, batch) = if stacked {
            // Primes descend, so row r's input (reduced mod prime r) is
            // canonical under prime r % np too.
            let (gpu, batch) = setup(log_n, 2 * np);
            (gpu, batch.with_row_prime((0..2 * np).map(|r| r % np).collect()))
        } else {
            setup(log_n, np)
        };
        let n1 = 1usize << split.min(log_n - 2).max(1);
        let t = [2usize, 4, 8][t_sel];
        // OT needs base^2 >= N and stages within Kernel-2.
        let n2 = batch.n() / n1;
        let ot = if (1 << ot) <= n2 { ot } else { 0 };
        let cfg = SmemConfig::new(n1)
            .per_thread(t)
            .coalesced(coalesced)
            .preload(preload)
            .ot_stages(ot);
        let whole = SmemConfig { n1: batch.n(), ot_stages: 0, ..cfg };
        let cfgs = if whole_rows { vec![cfg, whole] } else { vec![cfg] };
        for cfg in cfgs {
            batch.reset_data(&mut gpu);
            let rep = smem::run(&mut gpu, &batch, &cfg);
            prop_assert!(rep.verify(&gpu, &batch), "config {:?}", cfg);
            smem::run_inverse(&mut gpu, &batch, &cfg);
            prop_assert_eq!(batch.download(&gpu), batch.input().to_vec(), "roundtrip {:?}", cfg);
            smem::run_inverse(&mut gpu, &batch, &cfg);
            prop_assert_eq!(batch.download(&gpu), batch.expected_intt(), "inverse {:?}", cfg);
        }
    }

    #[test]
    fn dft_kernels_bit_exact(log_n in 4u32..=9, np in 1usize..=3) {
        let mut gpu = Gpu::new(GpuConfig::titan_v());
        let batch = dft::DftBatch::sequential(&mut gpu, log_n, np);
        dft::run_radix2(&mut gpu, &batch);
        prop_assert!(batch.verify(&gpu));
        batch.reset_data(&mut gpu);
        dft::run_high_radix(&mut gpu, &batch, 8);
        prop_assert!(batch.verify(&gpu));
        if log_n >= 5 {
            batch.reset_data(&mut gpu);
            dft::run_smem(&mut gpu, &batch, 1 << (log_n / 2), 4);
            prop_assert!(batch.verify(&gpu));
        }
    }

    #[test]
    fn simulator_invariants_hold(log_n in 4u32..=8, np in 1usize..=3) {
        let (mut gpu, batch) = setup(log_n, np);
        let rep = radix2::run(&mut gpu, &batch, radix2::ModMul::Shoup);
        let stats = rep.merged_stats();
        let cfg = &gpu.config;
        // A transaction serves at most one lane-request per word, so there
        // are never more transactions than 8-byte requests. (The reverse
        // bound does not hold: broadcasts and the L2 path serve many
        // requests per DRAM transaction.)
        prop_assert!(stats.dram_read_transactions <= stats.useful_read_bytes / 8);
        // This kernel uses no write merging: write transactions must cover
        // the requested bytes.
        prop_assert!(
            stats.dram_write_transactions * cfg.transaction_bytes as u64
                >= stats.useful_write_bytes
        );
        // Row activations cannot exceed transactions.
        prop_assert!(stats.dram_row_activations
            <= stats.dram_read_transactions + stats.dram_write_transactions);
        // Each stage writes all data exactly once.
        prop_assert_eq!(
            stats.useful_write_bytes,
            (np * (1 << log_n) * 8 * log_n as usize) as u64
        );
        // Timing components are finite and positive.
        for l in &rep.launches {
            prop_assert!(l.timing.total_s.is_finite() && l.timing.total_s > 0.0);
            prop_assert!(l.timing.occupancy > 0.0 && l.timing.occupancy <= 1.0);
        }
    }
}

#[test]
fn all_implementations_compute_the_same_transform() {
    // One batch, every implementation, identical device output.
    let (mut gpu, batch) = setup(9, 2);
    let expected = batch.expected_ntt();

    radix2::run(&mut gpu, &batch, radix2::ModMul::Shoup);
    assert_eq!(batch.download(&gpu), expected, "radix-2");

    for r in [4usize, 16, 64] {
        batch.reset_data(&mut gpu);
        high_radix::run(&mut gpu, &batch, r);
        assert_eq!(batch.download(&gpu), expected, "high-radix {r}");
    }

    for n1 in [8usize, 32] {
        for ot in [0u32, 2] {
            batch.reset_data(&mut gpu);
            smem::run(&mut gpu, &batch, &SmemConfig::new(n1).ot_stages(ot));
            assert_eq!(batch.download(&gpu), expected, "smem n1={n1} ot={ot}");
        }
    }
}

#[test]
fn occupancy_sensitivity_matches_paper_directions() {
    // Bigger radices -> fewer resident threads; spills past the cap.
    let (mut gpu, batch) = setup(12, 2);
    let r8 = high_radix::run(&mut gpu, &batch, 8);
    batch.reset_data(&mut gpu);
    let r64 = high_radix::run(&mut gpu, &batch, 64);
    assert!(r64.min_occupancy() <= r8.min_occupancy());
    assert!(r64.launches[0].occupancy.regs_spilled > 0);
    assert_eq!(r8.launches[0].occupancy.regs_spilled, 0);
}

#[test]
fn dram_traffic_accounting_is_consistent() {
    let (mut gpu, batch) = setup(10, 2);
    let rep = smem::run(&mut gpu, &batch, &SmemConfig::new(32));
    // Reported MB equals the transaction bytes (plus spills, none here).
    let bytes: u64 = rep
        .launches
        .iter()
        .map(|l| l.stats.dram_bytes(&gpu.config))
        .sum();
    assert_eq!(rep.dram_bytes(&gpu), bytes);
    assert!(rep.dram_utilization(&gpu) > 0.0 && rep.dram_utilization(&gpu) <= 1.0);
}
