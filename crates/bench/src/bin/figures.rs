//! Regenerate every table and figure of the paper on the simulator.
//!
//! Usage:
//!
//! ```text
//! figures [--quick] [fig1 fig3 fig4 fig5 fig7 fig8 fig9 fig11a fig11b
//!          fig11c fig12 fig13 table2 fpga wordsize residency streams
//!          serve sharding bootstrap otbase]
//! ```
//!
//! With no figure names, everything runs. `--quick` shrinks N/np so a full
//! sweep finishes in seconds (shape-preserving, used by CI).

use ntt_bench::experiments as ex;

struct Scale {
    log_n: u32,
    log_n_small: u32,
    np: usize,
    np_fig1: usize,
    batch_sweep: Vec<usize>,
    fig13_sweep: Vec<usize>,
    table2_logs: Vec<u32>,
}

fn paper_scale() -> Scale {
    Scale {
        log_n: 17,
        log_n_small: 16,
        np: 21,
        np_fig1: 45,
        batch_sweep: vec![1, 2, 3, 5, 8, 13, 21],
        fig13_sweep: vec![1, 6, 11, 16, 21, 26, 31, 36, 41, 45],
        table2_logs: vec![14, 15, 16, 17],
    }
}

fn quick_scale() -> Scale {
    Scale {
        log_n: 13,
        log_n_small: 12,
        np: 4,
        np_fig1: 6,
        batch_sweep: vec![1, 2, 4],
        fig13_sweep: vec![1, 2, 4, 6],
        table2_logs: vec![11, 12, 13],
    }
}

fn header(title: &str, paper: &str) {
    println!();
    println!("== {title}");
    println!("   paper: {paper}");
    println!("{:-<78}", "");
}

fn print_rows(rows: &[ex::Measurement], np: usize) {
    println!(
        "{:<28} {:>10} {:>10} {:>9} {:>7} {:>6}",
        "config", "total us", "per-NTT us", "DRAM MB", "util%", "occ%"
    );
    for m in rows {
        println!(
            "{:<28} {:>10.1} {:>10.1} {:>9.1} {:>7.1} {:>6.1}",
            m.label,
            m.time_us,
            m.time_us / np as f64,
            m.dram_mb,
            m.utilization * 100.0,
            m.occupancy * 100.0
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let wanted: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(|s| s.as_str())
        .collect();
    let run = |name: &str| wanted.is_empty() || wanted.contains(&name);
    let s = if quick { quick_scale() } else { paper_scale() };

    println!(
        "ntt-warp figure harness -- {} scale (N=2^{}, np={})",
        if quick { "quick" } else { "paper" },
        s.log_n,
        s.np
    );

    if run("fig1") {
        header(
            "Fig. 1: Shoup vs native modmul",
            "Shoup 332.9 us vs native 789.2 us (2.4x) at N=2^17, np=45",
        );
        let rows = ex::fig1(s.log_n, s.np_fig1);
        print_rows(&rows, s.np_fig1);
        println!(
            "   native/Shoup ratio: {:.2}x",
            rows[1].time_us / rows[0].time_us
        );
    }

    if run("fig3") {
        header(
            "Fig. 3(a): batching radix-2 NTT",
            "per-NTT 2751.5 -> 1426.4 us (1.92x); DRAM util saturates at 86.7%",
        );
        let rows = ex::fig3a(s.log_n, &s.batch_sweep);
        println!(
            "{:<10} {:>12} {:>12} {:>8}",
            "batch", "per-NTT us", "total us", "util%"
        );
        for m in &rows {
            println!(
                "{:<10} {:>12.1} {:>12.1} {:>8.1}",
                m.label,
                m.per_ntt_us,
                m.time_us,
                m.utilization * 100.0
            );
        }
        println!(
            "   batching speedup (per-NTT, batch 1 -> max): {:.2}x",
            rows[0].per_ntt_us / rows.last().unwrap().per_ntt_us
        );

        header(
            "Fig. 3(b): batching radix-2 DFT",
            "speedup 1.84x; util saturates at 86.7%",
        );
        let rows = ex::fig3b(s.log_n, &s.batch_sweep);
        for m in &rows {
            println!(
                "{:<10} {:>12.1} {:>12.1} {:>8.1}",
                m.label,
                m.per_ntt_us,
                m.time_us,
                m.utilization * 100.0
            );
        }
        println!(
            "   batching speedup: {:.2}x",
            rows[0].per_ntt_us / rows.last().unwrap().per_ntt_us
        );
    }

    let radices: Vec<usize> = vec![2, 4, 8, 16, 32, 64, 128];
    if run("fig4") {
        header(
            "Fig. 4: NTT high-radix sweep (time / DRAM / occupancy)",
            "radix-16 best (2.41x over radix-2); radix-32 -15.5% DRAM but util 59.9%; 64/128 spill",
        );
        for log_n in [s.log_n_small, s.log_n] {
            println!("-- N = 2^{log_n}");
            print_rows(&ex::fig4(log_n, s.np, &radices), s.np);
        }
    }

    if run("fig5") {
        header(
            "Fig. 5: DFT high-radix sweep",
            "radix-32 best (364.2 us at N=2^17); NTT occupancy ~31% below DFT at radix-32",
        );
        for log_n in [s.log_n_small, s.log_n] {
            println!("-- N = 2^{log_n}");
            print_rows(&ex::fig5(log_n, s.np, &radices), s.np);
        }
    }

    let k1_sizes: Vec<usize> = if quick {
        vec![16, 32, 64]
    } else {
        vec![32, 64, 128, 256, 512]
    };
    if run("fig7") {
        header(
            "Fig. 7: Kernel-1 coalescing via block merge",
            "+21.6% average speedup from coalesced accesses",
        );
        let rows = ex::fig7(s.log_n, s.np, &k1_sizes);
        print_rows(&rows, s.np);
        let mut ratios = Vec::new();
        for pair in rows.chunks(2) {
            ratios.push(pair[0].time_us / pair[1].time_us);
        }
        let avg: f64 = ratios.iter().sum::<f64>() / ratios.len() as f64;
        println!("   average uncoalesced/coalesced ratio: {:.3}x", avg);
    }

    if run("fig8") {
        header(
            "Fig. 8: per-stage twiddle vs input bytes (radix-2)",
            "twiddles grow from ~0 to input-size parity at the last stage",
        );
        for (stage, ratio) in ex::fig8(s.log_n) {
            println!("stage {:>2}: twiddle/input = {:.4}", stage, ratio);
        }
        // Cross-check the accounting against *measured* simulated DRAM
        // transactions of the radix-2 stage launches (kept at 2^12 so the
        // check is cheap at paper scale too).
        let measured_log_n = s.log_n.min(12);
        println!("measured check (radix-2 launches at N = 2^{measured_log_n}):");
        for (stage, analytic, measured) in ex::fig8_measured(measured_log_n, 2.min(s.np)) {
            if (1usize << (stage - 1)) >= 4 {
                println!(
                    "stage {:>2}: analytic {:.4}  measured {:.4}  {}",
                    stage,
                    analytic,
                    measured,
                    if (analytic - measured).abs() < 1e-12 {
                        "ok"
                    } else {
                        "MISMATCH"
                    }
                );
            }
        }
    }

    if run("fig9") {
        header(
            "Fig. 9: preloading Kernel-1 twiddles into SMEM",
            "+8.4% average speedup",
        );
        let rows = ex::fig9(s.log_n, s.np, &k1_sizes);
        print_rows(&rows, s.np);
        let mut ratios = Vec::new();
        for pair in rows.chunks(2) {
            ratios.push(pair[0].time_us / pair[1].time_us);
        }
        let avg: f64 = ratios.iter().sum::<f64>() / ratios.len() as f64;
        println!("   average direct/preload ratio: {:.3}x", avg);
    }

    if run("fig11a") {
        header(
            "Fig. 11(a): SMEM NTT per-thread sizes across splits",
            "4-point ~30.1% faster than 2-point; 4 ~ 8; all beat radix-16 register version",
        );
        print_rows(&ex::fig11a(s.log_n, s.np), s.np);
    }

    if run("fig11b") {
        header(
            "Fig. 11(b): SMEM DFT per-thread sizes",
            "8-point best; all beat the radix-32 register DFT (364.2 us)",
        );
        print_rows(&ex::fig11b(s.log_n, s.np), s.np);
    }

    if run("fig11c") {
        header(
            "Fig. 11(c): OT on the last 1 vs 2 stages",
            "OT on last 2 stages generally best (except 128x1024)",
        );
        print_rows(&ex::fig11c(s.log_n, s.np), s.np);
    }

    if run("fig12") {
        header(
            "Fig. 12: best SMEM config with/without OT per N",
            "OT: -24.5/23.5/24.5/25.1% DRAM, util -16.7%, speedup 9.3% avg",
        );
        println!(
            "{:<7} {:>12} {:>12} {:>9} {:>10} {:>10} {:>9}",
            "logN", "w/o OT us", "w/ OT us", "speedup", "MB w/o", "MB w/", "dMB%"
        );
        for (log_n, wo, w) in ex::fig12(&s.table2_logs, s.np) {
            println!(
                "{:<7} {:>12.1} {:>12.1} {:>8.1}% {:>10.1} {:>10.1} {:>8.1}%",
                log_n,
                wo.time_us,
                w.time_us,
                (wo.time_us / w.time_us - 1.0) * 100.0,
                wo.dram_mb,
                w.dram_mb,
                (1.0 - w.dram_mb / wo.dram_mb) * 100.0
            );
        }
    }

    if run("fig13") {
        header(
            "Fig. 13: time vs batch size np (best split, N=2^17)",
            "linear growth past saturation",
        );
        let rows = ex::fig13(s.log_n, &s.fig13_sweep);
        print_rows(&rows, 1);
    }

    if run("table2") {
        header(
            "Table II: radix-2 vs SMEM w/o OT vs SMEM w/ OT",
            "speedups 3.4-4.3x (w/o OT) and 3.8-4.7x (w/ OT); OT adds 8.1-10.1%",
        );
        println!(
            "{:<6} {:>11} {:>14} {:>8} {:>14} {:>8} {:>7}",
            "logN", "radix-2 us", "SMEM us", "[x]", "SMEM+OT us", "[x]", "OT +%"
        );
        for (log_n, r2, sm, sm_ot) in ex::table2(&s.table2_logs, s.np) {
            println!(
                "{:<6} {:>11.1} {:>14.1} {:>7.1}x {:>14.1} {:>7.1}x {:>6.1}%",
                log_n,
                r2.time_us,
                sm.time_us,
                r2.time_us / sm.time_us,
                sm_ot.time_us,
                r2.time_us / sm_ot.time_us,
                (sm.time_us / sm_ot.time_us - 1.0) * 100.0
            );
        }
    }

    if run("fpga") {
        header(
            "SVIII: comparison vs FCCM'20 FPGA NTT",
            "6.56x and 6.48x faster at (2^17, np=36) and (2^17, np=42)",
        );
        let nps = if quick { vec![2, 3] } else { vec![36, 42] };
        for (np, gpu_us, fpga_us, speedup) in ex::fpga_comparison(s.log_n, &nps) {
            println!(
                "np={:<4} gpu {:>10.1} us   fpga {:>10.1} us   speedup {:.2}x",
                np, gpu_us, fpga_us, speedup
            );
        }
    }

    if run("wordsize") {
        header("SIV: 32b vs 64b word size at Q = 2^1200", "difference ~5%");
        let rows = ex::wordsize(s.log_n);
        for m in &rows {
            println!("{:<16} {:>10.1} us", m.label, m.time_us);
        }
        println!(
            "   ratio 30-bit/60-bit: {:.3}",
            rows[1].time_us / rows[0].time_us
        );
    }

    if run("residency") {
        header(
            "Residency: device-resident he-lite transfer accounting",
            "Kim et al. keep ciphertexts GPU-resident; steady-state chain moves 0 bytes",
        );
        let r = ex::residency(if quick { 8 } else { 11 });
        println!("params: {}", r.params);
        println!(
            "initial upload (tables + keys + 2 encrypts): h2d {} ({} words), d2h {} ({} words)",
            r.initial.uploads,
            r.initial.upload_words,
            r.initial.downloads,
            r.initial.download_words
        );
        println!(
            "steady-state multiply/relinearize/rescale:   h2d+d2h transfers = {} ({} words moved, {} d2d copies)",
            r.steady.host_transfers(),
            r.steady.upload_words + r.steady.download_words,
            r.steady.d2d_copies
        );
        println!(
            "   residency gate: steady-state transfers {} (must be 0)",
            if r.steady.host_transfers() == 0 {
                "OK"
            } else {
                "VIOLATED"
            }
        );
        println!(
            "steady-state modeled device time: serialized {:.1} us, overlapped {:.1} us ({:.2}x)",
            r.timeline.serialized_s * 1e6,
            r.timeline.overlapped_s * 1e6,
            r.timeline.overlap()
        );
    }

    if run("streams") {
        header(
            "Streams: overlapped device execution across pooled evaluators",
            "HEAAN Demystified: overlap is where bootstrappable workloads win; 4 chains on 4 streams",
        );
        let log_n = if quick { 8 } else { 11 };
        println!(
            "{:<12} {:>14} {:>14} {:>9} {:>9}",
            "evaluators", "serialized us", "overlapped us", "overlap", "launches"
        );
        let mut gate = None;
        for evs in [1usize, 2, 4] {
            let r = ex::streams(log_n, evs);
            println!(
                "{:<12} {:>14.1} {:>14.1} {:>8.2}x {:>9}",
                r.evaluators,
                r.timeline.serialized_s * 1e6,
                r.timeline.overlapped_s * 1e6,
                r.overlap(),
                r.timeline.launches
            );
            gate = Some(r);
        }
        let gate = gate.expect("loop runs at least once");
        println!(
            "   overlap gate (4 evaluators >= 1.3x): {:.2}x {}",
            gate.overlap(),
            if gate.overlap() >= 1.3 {
                "OK"
            } else {
                "VIOLATED"
            }
        );
    }

    if run("serve") {
        header(
            "Serve: HE-as-a-service over the evaluator pool",
            "multi-tenant request serving is the workload GPU NTT acceleration feeds",
        );
        let log_n = if quick { 6 } else { 9 };
        let (tenants, chains) = if quick { (3, 2) } else { (6, 4) };
        println!(
            "{:<9} {:>9} {:>9} {:>8} {:>10} {:>10} {:>10} {:>12} {:>10}",
            "workers",
            "jobs",
            "rejected",
            "batches",
            "p50 us",
            "p99 us",
            "jobs/s",
            "dev-ser us",
            "op-retries"
        );
        for workers in [1usize, 2, 4] {
            let r = ex::serve(log_n, workers, tenants, chains);
            println!(
                "{:<9} {:>9} {:>9} {:>8} {:>10.1} {:>10.1} {:>10.0} {:>12.1} {:>10}",
                r.workers,
                r.completed,
                r.rejected,
                r.batches,
                r.p50_us,
                r.p99_us,
                r.throughput,
                r.timeline.serialized_s * 1e6,
                r.op_retries
            );
            assert_eq!(r.mismatches, 0, "served chain results drifted");
        }
        let b = ex::serve_batching(log_n, if quick { 6 } else { 12 });
        println!(
            "batching ({} jobs): unbatched {:.1} us ({} launches, {} transfers) vs batched \
             {:.1} us ({} launches, {} transfers) modeled device time",
            b.jobs,
            b.unbatched.serialized_s * 1e6,
            b.unbatched.launches,
            b.unbatched.transfers,
            b.batched.serialized_s * 1e6,
            b.batched.launches,
            b.batched.transfers
        );
        println!(
            "   batching gate (>= 1.5x): {:.2}x {}",
            b.speedup(),
            if b.speedup() >= 1.5 { "OK" } else { "VIOLATED" }
        );
    }

    if run("sharding") {
        header(
            "Sharding: RNS residue rows across K simulated devices",
            "multi-GPU scale-out is the paper's stated path past one device's memory",
        );
        // Scaling efficiency is a function of work per launch (launch
        // overhead is fixed and the per-shard launch count does not
        // shrink with K), so the quick table runs at smoke scale while
        // the gate-bearing sweep needs the deep chain at a
        // bootstrapping-adjacent ring — paper mode here, and enforced
        // in CI by the `ntt_sharded/*` gate in `bench_smoke.sh`.
        let (log_n, levels, jobs) = if quick { (12, 8, 2) } else { (15, 16, 2) };
        let sweep = ex::sharding(log_n, levels, jobs, &[1, 2, 4, 8]);
        println!(
            "N = 2^{}, {} levels, {} chains per configuration",
            sweep.log_n, sweep.levels, sweep.jobs
        );
        println!(
            "{:<8} {:>14} {:>9} {:>11} {:>12} {:>10}",
            "devices", "device us", "speedup", "efficiency", "link words", "launches"
        );
        for r in &sweep.reports {
            println!(
                "{:<8} {:>14.1} {:>8.2}x {:>10.0}% {:>12} {:>10}",
                r.shards,
                r.timeline.overlapped_s * 1e6,
                sweep.speedup(r),
                sweep.efficiency(r) * 100.0,
                r.link_words,
                r.timeline.launches
            );
        }
        let k4 = sweep
            .reports
            .iter()
            .find(|r| r.shards == 4)
            .expect("sweep includes K=4");
        let ratio = k4.timeline.overlapped_s / sweep.baseline().timeline.overlapped_s;
        if quick {
            println!(
                "   K=4 at smoke scale: {ratio:.2}x single device (launch-overhead-bound; \
                 the 0.45x gate runs at paper scale / in bench_smoke.sh)"
            );
        } else {
            println!(
                "   scaling gate (K=4 <= 0.45x single device): {:.2}x {}",
                ratio,
                if ratio <= 0.45 { "OK" } else { "VIOLATED" }
            );
        }
    }

    if run("bootstrap") {
        header(
            "Bootstrap: the title workload -- CKKS-style bootstrapping op-mix",
            "NTT + key-switch kernels dominate bootstrappable HE device time",
        );
        // `gated`: the deep pipeline carries the op-mix gate; a shallow
        // small-ring bootstrap is launch-bound, so its share is printed
        // for reference only.
        let print_report = |r: &ex::BootstrapReport, gated: bool| {
            println!("params: {}", r.params);
            let total = r.total_s();
            println!(
                "{:<14} {:>9} {:>12} {:>8} {:>10}",
                "kernel class", "launches", "device us", "share", "DRAM MB"
            );
            let rows = [
                ("NTT", r.ntt),
                ("key-switch", r.key_switch),
                ("pointwise", r.pointwise),
            ];
            for (name, row) in rows {
                println!(
                    "{:<14} {:>9} {:>12.1} {:>7.1}% {:>10.2}",
                    name,
                    row.launches,
                    row.time_s * 1e6,
                    row.time_s / total * 100.0,
                    row.dram_bytes as f64 / 1e6
                );
            }
            println!(
                "total: {} launches, {:.3} model-ms, {:.2} DRAM MB over one steady-state bootstrap",
                rows.iter().map(|(_, row)| row.launches).sum::<u64>(),
                total * 1e3,
                rows.iter().map(|(_, row)| row.dram_bytes).sum::<u64>() as f64 / 1e6
            );
            if gated {
                println!(
                    "   op-mix gate (NTT + key-switch >= 60%): {:.1}% {}",
                    r.ntt_keyswitch_share() * 100.0,
                    if r.ntt_keyswitch_share() >= 0.60 {
                        "OK"
                    } else {
                        "VIOLATED"
                    }
                );
            } else {
                println!(
                    "   NTT + key-switch share: {:.1}% (launch-bound small ring; not gated)",
                    r.ntt_keyswitch_share() * 100.0
                );
            }
            println!(
                "   residency gate: steady-state bootstrap transfers {} (must be 0)",
                if r.steady.host_transfers() == 0 {
                    "OK"
                } else {
                    "VIOLATED"
                }
            );
            let (w, st) = (r.warmup_memo, r.steady_memo);
            println!(
                "   launch memo: warm-up {} hits / {} misses, steady {} hits / {} misses",
                w.hits, w.misses, st.hits, st.misses
            );
        };
        let r = ex::bootstrap(if quick { 4 } else { 6 });
        print_report(&r, false);

        // The deep pipeline at bootstrapping scale: full 21-level
        // parameters, sparse slot matrix so key/diagonal material stays
        // tractable, first at N = 2^8 (the op-mix gate's ring), then
        // larger. Quick mode shrinks the larger ring (host keygen at 2^16
        // is minutes of single-thread NTTs); the full run is the
        // paper-scale measurement the BTS cross-check below refers to.
        let deep_log_n: u32 = if quick { 12 } else { 16 };
        println!();
        print_report(&ex::bootstrap_deep(8, 8), true);
        println!();
        let d = ex::bootstrap_deep(deep_log_n, 8);
        print_report(&d, true);
        // Cross-check against BTS (Kim et al., arXiv:2112.15479), which
        // profiles CKKS bootstrapping at comparable ring degrees
        // (N = 2^16-2^17) and reports execution dominated by
        // key-switching with (i)NTT as the single largest kernel class —
        // together carrying on the order of 80-90% of device time.
        println!(
            "   BTS cross-check (arXiv:2112.15479, N=2^16-2^17): reported NTT+key-switch \
             ~80-90% of bootstrap time; ours {:.1}% NTT + {:.1}% key-switch = {:.1}% -- {}",
            d.ntt.time_s / d.total_s() * 100.0,
            d.key_switch.time_s / d.total_s() * 100.0,
            d.ntt_keyswitch_share() * 100.0,
            if d.ntt_keyswitch_share() >= 0.60 {
                "same NTT-dominated regime"
            } else {
                "OUTSIDE the reported regime"
            }
        );
    }

    if run("otbase") {
        header(
            "SVII: OT factorization base sweep",
            "base-1024 performs best (table size vs extra modmuls)",
        );
        println!(
            "{:<8} {:>10} {:>9} {:>12}",
            "base", "entries", "modmuls", "sim us"
        );
        for (base, entries, modmuls, time) in ex::ot_base_sweep(s.log_n, s.np) {
            if time.is_nan() {
                println!("{:<8} {:>10} {:>9} {:>12}", base, entries, modmuls, "-");
            } else {
                println!("{:<8} {:>10} {:>9} {:>12.1}", base, entries, modmuls, time);
            }
        }
    }

    println!();
    println!("done.");
}
