#!/usr/bin/env bash
# Full CI pipeline: release build + complete ctest suite, a bench-smoke +
# artifact-regression stage (modeled runtimes gated against the committed
# baseline), a fault-injection smoke run under a fixed seed (degraded-mode
# runtimes and recovery counters gated the same way), a traced run of the
# same fault scenario structurally validated by `wimpi_trace_check
# cluster`, a concurrent-streams throughput smoke (answer identity +
# admission invariants gated against the committed baseline), a
# flight-recorder stage (tight SLO + injected straggler must produce a
# flight dump / slow-query log / exposition that pass `wimpi_trace_check
# flight`, and recording must not move mean latency), a plan-quality stage
# (all 22 queries with statistics collected + cardinality capture on:
# answers must stay bit-identical, sketch accuracy and Q-error residuals
# validated by wimpi_stats_check and gated against the committed baseline
# by wimpi_bench_compare), a chaos-soak stage (hundreds of seed-derived
# fault x steal x resize scenarios through fine-grained recovery: answers
# must stay bit-identical, every recovery mechanism must be exercised, the
# fine-grained tail must dominate retry-only, counters gated against the
# committed baseline, one traced scenario validated by `wimpi_trace_check
# cluster`), a roofline-timeline stage (all 22 queries with the sampler
# attached: answers bit-identical, modeled bound-class rows gated against
# the committed baseline, sampling must not move mean latency, and the
# Chrome-trace dump must pass `wimpi_trace_check timeline`), then the
# sanitizer passes (TSan over the parallel + service + observability +
# fault + stats + timeline tests, ASan over everything). Each stage fails
# the script on the first error.
#
# Usage: scripts/ci.sh [build-dir]   (default: build)
#   WIMPI_CI_SKIP_SANITIZERS=1 scripts/ci.sh   # skip TSan/ASan stages
#   WIMPI_CI_SKIP_BENCH=1 scripts/ci.sh        # skip the bench-smoke gate
#   WIMPI_CI_FLIGHT_TOL=0.15 scripts/ci.sh     # flight-overhead gate (frac)
#   WIMPI_CI_TIMELINE_TOL=0.25 scripts/ci.sh   # sampler-overhead gate (frac)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"

echo "=== [1/11] build + tests ==="
cmake -S "${repo_root}" -B "${build_dir}" -DCMAKE_BUILD_TYPE=Release
cmake --build "${build_dir}" -j
ctest --test-dir "${build_dir}" --output-on-failure

if [[ "${WIMPI_CI_SKIP_BENCH:-0}" != "1" ]]; then
  echo "=== [2/11] bench smoke + artifact regression gate ==="
  # Small physical SF keeps this a smoke run; the gated rows are modeled
  # runtimes (deterministic: fixed dbgen seed x Table I profiles), so a
  # committed baseline is stable across hosts. Wall times in the artifact
  # are informational only (no --wall-tol).
  artifact="${build_dir}/BENCH_table2_sf1.json"
  WIMPI_PERF_DISABLE=1 "${build_dir}/bench/bench_table2_sf1" \
    --physical-sf 0.01 --json "${artifact}" > /dev/null
  "${build_dir}/bench/wimpi_bench_compare" \
    "${repo_root}/bench/baselines/BENCH_table2_sf1.json" "${artifact}"

  echo "=== [3/11] fault-injection smoke + regression gate ==="
  # Same idea under a fixed fault seed: the degraded-mode runtimes and
  # recovery counters are pure functions of (dbgen seed, cost model, fault
  # seed), so they regress against a committed baseline like clean runs.
  fault_artifact="${build_dir}/BENCH_table3_faults.json"
  WIMPI_PERF_DISABLE=1 "${build_dir}/bench/bench_table3_sf10" \
    --physical-sf 0.01 --faults 42 --json "${fault_artifact}" > /dev/null
  "${build_dir}/bench/wimpi_bench_compare" \
    "${repo_root}/bench/baselines/BENCH_table3_faults.json" "${fault_artifact}"

  echo "=== [4/11] traced fault run + trace structure gate ==="
  # Re-run the same fault scenario with telemetry on and validate the
  # export: one coherent span tree (every retry parented to the attempt it
  # retried, every fault flow-linked to the retry it caused). Catches
  # refactors that silently drop spans or break causality without failing
  # any unit test.
  trace_file="${build_dir}/BENCH_table3_faults.trace.json"
  WIMPI_PERF_DISABLE=1 "${build_dir}/bench/bench_table3_sf10" \
    --physical-sf 0.01 --faults 42 --trace "${trace_file}" > /dev/null
  "${build_dir}/bench/wimpi_trace_check" cluster "${trace_file}"

  echo "=== [5/11] throughput smoke + regression gate ==="
  # Concurrent streams through the query service: the bench itself exits
  # nonzero on any answer differing from isolated execution or on a peak
  # reservation above the budget; the gated artifact rows (counts, per-
  # query checksums, pipeline/task totals) are deterministic, wall-clock
  # throughput/latency metrics informational.
  throughput_artifact="${build_dir}/BENCH_throughput.json"
  WIMPI_PERF_DISABLE=1 "${build_dir}/bench/bench_throughput" \
    --streams 4 --physical-sf 0.01 --json "${throughput_artifact}" > /dev/null
  "${build_dir}/bench/wimpi_bench_compare" \
    "${repo_root}/bench/baselines/BENCH_throughput.json" \
    "${throughput_artifact}"

  echo "=== [6/11] flight recorder + SLO gate ==="
  # Run the throughput bench with a deliberately tight SLO and one injected
  # straggler query per lap: every lap must trip a tail-based trigger, so
  # the run must leave behind flight dumps (base path + ".1", ...), a
  # slow-query log, and an exposition snapshot. `wimpi_trace_check flight`
  # validates structure (span nesting, event windows) and causality
  # (submit <= admit <= finish, cpu == driver + worker, queue wait <=
  # wall, the dumped window covers its triggering slow query).
  flight_dump="${build_dir}/BENCH_flight.trace.json"
  slow_log="${build_dir}/BENCH_flight.slow.jsonl"
  expo_file="${build_dir}/BENCH_flight.prom"
  WIMPI_PERF_DISABLE=1 "${build_dir}/bench/bench_throughput" \
    --streams 2 --laps 2 --physical-sf 0.01 \
    --slo-us 100000 --straggler-ms 150 \
    --flight-dump "${flight_dump}" --slow-log "${slow_log}" \
    --expo "${expo_file}" > /dev/null
  "${build_dir}/bench/wimpi_trace_check" flight "${flight_dump}" \
    --slow-log "${slow_log}" --expo "${expo_file}" --min-slow 2

  # Overhead gate: the always-on recorder must not move mean latency.
  # A/B on the same straggler-free workload, flight off vs on; only the
  # mean-latency rollup is compared (everything else in the artifact is
  # answer checksums already gated above). The tolerance is env-overridable
  # because single-core CI hosts are noisy; the paper-facing budget is the
  # TotalRecorded cost of one relaxed store per event, asserted in
  # flight_test, not wall time.
  flight_tol="${WIMPI_CI_FLIGHT_TOL:-0.15}"
  flight_off="${build_dir}/BENCH_flight_off.json"
  flight_on="${build_dir}/BENCH_flight_on.json"
  WIMPI_PERF_DISABLE=1 "${build_dir}/bench/bench_throughput" \
    --streams 2 --laps 2 --physical-sf 0.01 --flight-off \
    --json "${flight_off}" > /dev/null
  WIMPI_PERF_DISABLE=1 "${build_dir}/bench/bench_throughput" \
    --streams 2 --laps 2 --physical-sf 0.01 \
    --json "${flight_on}" > /dev/null
  "${build_dir}/bench/wimpi_bench_compare" \
    "${flight_off}" "${flight_on}" \
    --only mean_latency --wall-tol "${flight_tol}"

  echo "=== [7/11] plan-quality smoke + Q-error gate ==="
  # All 22 queries twice: seed path, then with column statistics collected
  # and the cardinality estimator installed. The bench exits nonzero if
  # any answer changes. wimpi_stats_check enforces the structural
  # invariants (all 22 queries estimated, Q-errors >= 1, sketch NDV /
  # quantile error bounds). The artifact rows (per-query Q-error
  # residuals, sketch accuracy) are pure functions of the fixed dbgen
  # seed, so wimpi_bench_compare gates them against the committed
  # baseline at the default tolerance.
  stats_artifact="${build_dir}/BENCH_stats.json"
  WIMPI_PERF_DISABLE=1 "${build_dir}/bench/bench_stats_qerror" \
    --physical-sf 0.01 --json "${stats_artifact}" > /dev/null
  "${build_dir}/bench/wimpi_stats_check" "${stats_artifact}"
  "${build_dir}/bench/wimpi_bench_compare" \
    "${repo_root}/bench/baselines/BENCH_stats.json" "${stats_artifact}"

  echo "=== [8/11] chaos soak + recovery gate ==="
  # 200 SF-1 seeds plus an SF-10 subset through fine-grained recovery
  # (pinned sweep: seed-derived fault plans, resize on even seeds, steal
  # disabled every seventh). The bench exits nonzero on any checksum
  # mismatch; wimpi_chaos_check enforces the seed floors, that every
  # recovery mechanism fired, and that the fine-grained modeled tail
  # (p95/p99/max) strictly beats whole-partition retry. The counters and
  # tail latencies are pure functions of (dbgen seed, cost model, sweep
  # seeds), so wimpi_bench_compare gates them against the committed
  # baseline. One fine-grained scenario is exported with telemetry on and
  # structurally validated (steal/ckpt causality) by `wimpi_trace_check
  # cluster`.
  chaos_artifact="${build_dir}/BENCH_chaos.json"
  chaos_trace="${build_dir}/BENCH_chaos.trace.json"
  WIMPI_PERF_DISABLE=1 "${build_dir}/bench/bench_chaos" \
    --physical-sf 0.02 --seeds 200 --sf10-seeds 16 \
    --json "${chaos_artifact}" --trace "${chaos_trace}" > /dev/null
  "${build_dir}/bench/wimpi_chaos_check" "${chaos_artifact}"
  "${build_dir}/bench/wimpi_bench_compare" \
    "${repo_root}/bench/baselines/BENCH_chaos.json" "${chaos_artifact}"
  "${build_dir}/bench/wimpi_trace_check" cluster "${chaos_trace}"

  echo "=== [9/11] roofline timeline + sampler overhead gate ==="
  # All 22 queries with the roofline sampler attached. The bench itself
  # exits nonzero if any sampled lap's answer checksum differs from the
  # first lap. Gated artifact rows are answer checksums plus modeled
  # bound-class verdicts on the fixed Table I profiles (pure functions of
  # the dbgen seed and cost model); measured GB/s / IPC live only in the
  # dump, a Chrome trace (timeline.meta instant, one timeline.query span
  # per query, timeline.* counter tracks) that `wimpi_trace_check
  # timeline` validates structurally (monotone counter tracks, bandwidth
  # within the host roofline, Q1/Q6 classified, measured-vs-modeled
  # agreement where the host PMU exposes counters). Deliberately NOT run
  # with WIMPI_PERF_DISABLE=1: that variable force-disables the sampler
  # this stage exists to exercise.
  timeline_tol="${WIMPI_CI_TIMELINE_TOL:-0.25}"
  timeline_off="${build_dir}/BENCH_timeline_off.json"
  timeline_on="${build_dir}/BENCH_timeline.json"
  timeline_dump="${build_dir}/BENCH_timeline.trace.json"
  "${build_dir}/bench/bench_timeline" \
    --physical-sf 0.01 --laps 7 --off --json "${timeline_off}" > /dev/null
  "${build_dir}/bench/bench_timeline" \
    --physical-sf 0.01 --laps 7 --json "${timeline_on}" \
    --dump "${timeline_dump}" > /dev/null
  "${build_dir}/bench/wimpi_bench_compare" \
    "${repo_root}/bench/baselines/BENCH_timeline.json" "${timeline_on}"
  # Overhead gate: sampling must not move mean latency (A/B, sampler off
  # vs on, same workload; 7 laps so the mean is stable enough to gate).
  # The design budget is <= 2% when the sampler thread has a spare
  # hardware thread to ride (any multi-core host, including the Pi-class
  # targets). The default tolerance is wider because on a single-CPU CI
  # VM every 1 kHz sampler wakeup preempts the only core, so the A/B
  # measures context-switch pressure, not per-sample cost.
  "${build_dir}/bench/wimpi_bench_compare" \
    "${timeline_off}" "${timeline_on}" \
    --only mean_latency --wall-tol "${timeline_tol}"
  "${build_dir}/bench/wimpi_trace_check" timeline "${timeline_dump}"
else
  echo "=== bench stages skipped (WIMPI_CI_SKIP_BENCH=1) ==="
fi

if [[ "${WIMPI_CI_SKIP_SANITIZERS:-0}" != "1" ]]; then
  echo "=== [10/11] ThreadSanitizer (parallel + service + obs + faults) ==="
  "${repo_root}/scripts/check_tsan.sh"

  echo "=== [11/11] AddressSanitizer (full suite) ==="
  "${repo_root}/scripts/check_asan.sh"
else
  echo "=== sanitizer stages skipped (WIMPI_CI_SKIP_SANITIZERS=1) ==="
fi

echo "CI pass: OK"
