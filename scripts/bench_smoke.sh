#!/usr/bin/env bash
# Bench-regression smoke: run the figure harness once at --quick scale
# (every section, with the assertions inside it; its output goes to the
# log), then re-measure the wall-clock benchmark suite and enforce
# WITHIN-RUN ratio gates — structural speedups that must hold on any
# host because both sides of each gate come from the same run:
#
#   * the fused lazy RNS multiply stays well under the strict legacy
#     pipeline it replaced (PR 2 measured ~5.8x; the gate allows 0.6x);
#   * the backend-routed ring multiply stays at parity with the in-run
#     strict reference (1.15x headroom for measurement noise);
#   * an he-lite multiply/relinearize/rescale (key-switch digits batched
#     through one backend call) stays within an NTT-count-derived bound of
#     the in-run forward-NTT benchmark (~25 NTT-equivalents of work; the
#     80x bound trips if a strict path sneaks back into the hot loop);
#   * a device-resident he-lite multiply chain on SimBackend performs
#     ZERO steady-state host<->device transfers (the he_ops bench records
#     the counted transfers + 1 as a pseudo-benchmark, so
#     "steady_transfers_plus_one <= 1.0 * unit" holds iff transfers == 0);
#   * a 4-evaluator SimBackend pool running independent
#     encrypt->multiply->rescale chains on 4 streams overlaps modeled
#     device time >= 1.3x vs the serialized schedule
#     (overlapped <= 0.77 * serialized; both sides are modeled time from
#     one deterministic run, so the gate holds on any host);
#   * the he-serve request batcher runs 8 encrypt->eval->decrypt jobs
#     as group dispatches (one host batch per pipeline stage of each
#     group) at >= 1.5x less modeled device time
#     than the one-job-at-a-time control (batched <= 0.667 * unbatched;
#     modeled time again, host-independent);
#   * the fault-injection plane is free when no fault fires: the same
#     jobs through the fallible serve pipelines with a zero-rate
#     FaultPlan armed stay within 5% modeled device time of the
#     disarmed run (armed_zero <= 1.05 * off);
#   * gating the whole bootstrap is free when no fault fires: one steady
#     shallow bootstrap through try_bootstrap (every op on one armed
#     checkout) under a zero-rate FaultPlan stays within 5% modeled
#     device time of the unarmed bootstrap, bit-identical
#     (armed_zero <= 1.05 * unarmed);
#   * the title workload holds its shape: in one steady-state CKKS-style
#     bootstrap on SimBackend, NTT + key-switch kernels carry >= 60% of
#     the modeled device time (total <= 1.6667 * ntt_keyswitch), and the
#     bootstrap crosses the bus zero times (steady_transfers_plus_one
#     <= 1.0 * unit);
#   * the hierarchical 4-step NTT earns its keep at bootstrapping scale:
#     at N = 2^16 the 3-kernel plan stays under the best single
#     fused-SMEM kernel's c*N*logN extrapolation from N = 2^13
#     (four_step <= 1.0 * single_kernel_extrapolated), and at N = 2^13
#     the backend's routed forward (its swept SMEM split) stays within
#     5% of the best single kernel (auto <= 1.05 * best_single_kernel)
#     -- the split choice cannot regress mid-size rings (no backend op
#     routes to the hierarchical kernels);
#   * multi-device sharding scales: the same deep-chain multiply/
#     relinearize/rescale job on 4 simulated devices (cyclic RNS row
#     partition, key-switch all-gather over the modeled link) finishes
#     in <= 0.45x the single-device modeled time at N = 2^15 / 16
#     levels (k4_device_time <= 0.45 * k1_device_time; the sweep also
#     asserts every K decrypts bit-identical to the CPU reference).
#
# Usage:
#   scripts/bench_smoke.sh                  # within-run ratio gates (CI)
#
# Ratio gates replace the old absolute-ns comparison against the
# checked-in BENCH_seed.json, which only held on hosts comparable to the
# recording machine (ROADMAP item e); BENCH_seed.json and BENCH_pr2.json
# stay as records.
set -euo pipefail
cd "$(dirname "$0")/.."
if [[ $# -gt 0 ]]; then
    echo "usage: scripts/bench_smoke.sh (takes no arguments)" >&2
    exit 2
fi

# Absolute path: cargo runs bench binaries with cwd set to the package dir.
NOW="$(pwd)/target/bench_now.json"

rm -f "$NOW"
# The figure harness is the shape smoke, run once per CI run here; the
# criterion benches are the timing smoke. Keep both on the same build.
cargo build --release --quiet
# Wall time of the two steps, printed with no gate: the simulator's host
# cost against ROADMAP item 1's 60 s target for `figures --quick`.
start=$SECONDS
cargo run --release --quiet --bin figures -- --quick
echo "bench_smoke: figures --quick took $((SECONDS - start)) s"
start=$SECONDS
CRITERION_JSON="$NOW" cargo bench -p ntt-bench --bench cpu_ntt --bench he_ops --bench modmul
echo "bench_smoke: benches took $((SECONDS - start)) s"

cargo run --release --quiet -p ntt-bench --bin bench_guard -- "$NOW" \
        --gate "rns_multiply_n8192_np8/fused_1thread<=0.6*rns_multiply_n8192_np8/strict_legacy" \
        --gate "cpu_ntt_pipeline/negacyclic_multiply_4096<=1.15*cpu_ntt_pipeline/negacyclic_multiply_strict_4096" \
        --gate "he_lite_n2048_l3/multiply_relinearize_rescale<=80*he_lite_n2048_l3/forward_ntt_all_primes" \
        --gate "he_lite_sim_n256_l3/steady_transfers_plus_one<=1.0*he_lite_sim_n256_l3/unit" \
        --gate "sim_streams_4ev/overlapped_device_time<=0.77*sim_streams_4ev/serialized_device_time" \
        --gate "he_serve_sim/batched_device_time<=0.667*he_serve_sim/unbatched_device_time" \
        --gate "he_serve_sim/fault_plane_armed_zero_device_time<=1.05*he_serve_sim/fault_plane_off_device_time" \
        --gate "he_boot_sim/total_device_time<=1.6667*he_boot_sim/ntt_keyswitch_device_time" \
        --gate "he_boot_sim/steady_transfers_plus_one<=1.0*he_boot_sim/unit" \
        --gate "he_boot_sim/armed_zero_device_time<=1.05*he_boot_sim/unarmed_device_time" \
        --gate "ntt_hier_n65536/four_step_device_time<=1.0*ntt_hier_n65536/single_kernel_extrapolated_device_time" \
        --gate "ntt_hier_n8192/auto_device_time<=1.05*ntt_hier_n8192/best_single_kernel_device_time" \
        --gate "ntt_sharded/k4_device_time<=0.45*ntt_sharded/k1_device_time"
