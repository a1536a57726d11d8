#!/usr/bin/env bash
# Full CI pipeline. Every deterministic gate is a ctest (bench/CMakeLists.txt:
# each gated bench runs once, its artifact must match the committed baseline
# at zero tolerance, and `wimpi_check <kind>` validates its artifact or
# trace), so stage 1 runs them all. The stages after it hold what ctest
# cannot run reliably in parallel: gates that rest on host wall time (the
# flight recorder's SLO trigger, and the flight-recorder and sampler
# overhead A/Bs), then the sanitizer passes (TSan over the parallel +
# service + observability + fault + stats + timeline tests, ASan over
# everything). Each stage fails the script on the first error.
#
# Usage: scripts/ci.sh [build-dir]   (default: build)
#   WIMPI_CI_SKIP_SANITIZERS=1 scripts/ci.sh   # skip TSan/ASan stages
#   WIMPI_CI_SKIP_BENCH=1 scripts/ci.sh        # skip the host-timing stages
#   WIMPI_CI_FLIGHT_TOL=0.15 scripts/ci.sh     # flight-overhead gate (frac)
#   WIMPI_CI_TIMELINE_TOL=0.25 scripts/ci.sh   # sampler-overhead gate (frac)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"
bench="${build_dir}/bench"

echo "=== [1/5] build + tests (every deterministic bench gate) ==="
cmake -S "${repo_root}" -B "${build_dir}" -DCMAKE_BUILD_TYPE=Release
cmake --build "${build_dir}" -j
ctest --test-dir "${build_dir}" --output-on-failure

if [[ "${WIMPI_CI_SKIP_BENCH:-0}" != "1" ]]; then
  echo "=== [2/5] flight recorder + SLO gate ==="
  # Run the throughput bench with a deliberately tight SLO and one injected
  # straggler query per lap: every lap must trip a tail-based trigger, so
  # the run must leave behind flight dumps (base path + ".1", ...), a
  # slow-query log, and an exposition snapshot. `wimpi_check flight`
  # validates structure (span nesting, event windows) and causality
  # (submit <= admit <= finish, cpu == driver + worker, queue wait <=
  # wall, the dumped window covers its triggering slow query). The
  # trigger rests on wall time (150 ms straggler vs 100 ms SLO) and a 2 ms
  # stamp slack, so this stays out of parallel ctest.
  flight_dump="${build_dir}/BENCH_flight.trace.json"
  slow_log="${build_dir}/BENCH_flight.slow.jsonl"
  expo_file="${build_dir}/BENCH_flight.prom"
  WIMPI_PERF_DISABLE=1 "${bench}/bench_throughput" \
    --streams 2 --laps 2 --physical-sf 0.01 \
    --slo-us 100000 --straggler-ms 150 \
    --flight-dump "${flight_dump}" --slow-log "${slow_log}" \
    --expo "${expo_file}" > /dev/null
  "${bench}/wimpi_check" flight "${flight_dump}" \
    --slow-log "${slow_log}" --expo "${expo_file}" --min-slow 2

  echo "=== [3/5] flight-recorder and sampler overhead gates ==="
  # The always-on recorder must not move mean latency: A/B on the same
  # straggler-free workload, flight off vs on; only the mean-latency
  # rollup is compared (the answer checksums are gated in ctest). One
  # short run per side flaked (a single slow run on a busy host reads as
  # overhead), so each side runs seven 6-lap runs, off and on interleaved so
  # host drift hits both alike, and the gate compares each side's median
  # run. The tolerance is env-overridable because single-core CI hosts
  # are noisy; the paper-facing budget is the TotalRecorded cost of one
  # relaxed store per event, asserted in flight_test, not wall time.
  flight_tol="${WIMPI_CI_FLIGHT_TOL:-0.15}"
  flight_runs=7
  for i in $(seq "${flight_runs}"); do
    for side in off on; do
      WIMPI_PERF_DISABLE=1 "${bench}/bench_throughput" \
        --streams 2 --laps 6 --physical-sf 0.01 \
        --flight-off "$([[ "${side}" == off ]] && echo true || echo false)" \
        --json "${build_dir}/BENCH_flight_${side}_${i}.json" > /dev/null
    done
  done
  # The artifact among "$@" whose mean latency is the median.
  median_run() {
    for f in "$@"; do
      echo "$(sed -n 's/.*"mean_latency_seconds":\([^,}]*\).*/\1/p' "${f}") ${f}"
    done | sort -g | sed -n "$(( ($# + 1) / 2 ))p" | cut -d' ' -f2
  }
  "${bench}/wimpi_check" compare \
    "$(median_run "${build_dir}"/BENCH_flight_off_*.json)" \
    "$(median_run "${build_dir}"/BENCH_flight_on_*.json)" \
    --only mean_latency --wall-tol "${flight_tol}"

  # Sampling must not move mean latency either: the same seven-run,
  # interleaved, median-vs-median A/B, sampler off vs on (each run 7 laps
  # of all 22 queries). Deliberately NOT run with WIMPI_PERF_DISABLE=1:
  # that variable force-disables the sampler. The design budget is <= 2%
  # when the sampler thread has a spare hardware thread to ride (any
  # multi-core host, including the Pi-class targets). The default
  # tolerance is wider because on a single-CPU CI VM every 1 kHz sampler
  # wakeup preempts the only core, so the A/B measures context-switch
  # pressure, not per-sample cost.
  timeline_tol="${WIMPI_CI_TIMELINE_TOL:-0.25}"
  timeline_runs=7
  for i in $(seq "${timeline_runs}"); do
    for side in off on; do
      "${bench}/bench_timeline" --physical-sf 0.01 --laps 7 \
        --off "$([[ "${side}" == off ]] && echo true || echo false)" \
        --json "${build_dir}/BENCH_timeline_${side}_${i}.json" > /dev/null
    done
  done
  "${bench}/wimpi_check" compare \
    "$(median_run "${build_dir}"/BENCH_timeline_off_*.json)" \
    "$(median_run "${build_dir}"/BENCH_timeline_on_*.json)" \
    --only mean_latency --wall-tol "${timeline_tol}"
else
  echo "=== host-timing stages skipped (WIMPI_CI_SKIP_BENCH=1) ==="
fi

if [[ "${WIMPI_CI_SKIP_SANITIZERS:-0}" != "1" ]]; then
  echo "=== [4/5] ThreadSanitizer (parallel + service + obs + faults) ==="
  "${repo_root}/scripts/check_tsan.sh"

  echo "=== [5/5] AddressSanitizer (full suite) ==="
  "${repo_root}/scripts/check_asan.sh"
else
  echo "=== sanitizer stages skipped (WIMPI_CI_SKIP_SANITIZERS=1) ==="
fi

echo "CI pass: OK"
