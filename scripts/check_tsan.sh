#!/usr/bin/env bash
# Builds the parallel-execution and observability tests under
# ThreadSanitizer and runs them. Intended for CI: any data race in the
# thread pool, scheduler, the morsel-parallel operator paths (including the
# filter morsels, the dictionary pass of string predicates and the hash
# aggregation's chunk tables and state merge), the
# range-parallel TPC-H generator, or the profiling/metrics/trace
# instrumentation fails the script.
#
# Usage: scripts/check_tsan.sh [build-dir]   (default: build-tsan)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build-tsan}"

cmake -S "${repo_root}" -B "${build_dir}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DWIMPI_SANITIZE=thread

cmake --build "${build_dir}" \
  --target parallel_test parallel_queries_test obs_test obs_queries_test \
           obs_perf_test obs_export_test memory_tracker_test fault_test \
           service_test flight_test stats_test timeline_test dbgen_test \
           storage_test tbl_io_test exec_test common_test kernel_test \
           golden_query_test -j

# halt_on_error so the first race fails fast with a nonzero exit code.
export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"

"${build_dir}/tests/parallel_test"
# The full 132-case matrix regenerates TPC-H data per process under ctest;
# running the binary directly keeps the TSan pass quick while still covering
# every query at every thread count.
"${build_dir}/tests/parallel_queries_test"
# Observability: profiling/pool-metrics/flight instrumentation races against
# worker threads would surface here (profiled runs at every thread count).
"${build_dir}/tests/obs_test"
"${build_dir}/tests/obs_queries_test"
# Telemetry export: trace rendering of fault-injected cluster runs and the
# exposition writer.
"${build_dir}/tests/obs_export_test"
# Perf-counter attach/detach around worker threads, and the MemoryTracker
# concurrent used/peak accounting.
"${build_dir}/tests/obs_perf_test"
"${build_dir}/tests/memory_tracker_test"
# Fault injection + recovery (cancellation tokens racing against morsel
# workers, retries/reassignment over the real parallel partial plans).
"${build_dir}/tests/fault_test"
# Query service: concurrent sessions over the shared pool (fair scheduler
# drain slots vs query drivers, admission reserve/release, cancellation
# and deadline racing mid-pipeline, the many-sessions stress case).
"${build_dir}/tests/service_test"
# Flight recorder: lock-free per-thread rings written by pool workers and
# drivers while triggers snapshot them, plus the SLO tracker and
# slow-query log under the service's concurrent finalize path.
"${build_dir}/tests/flight_test"
# Column statistics: the morsel-parallel BuildTableStats shard merge, and
# the registry's shared_mutex paths (concurrent Collect + estimation).
"${build_dir}/tests/stats_test"
# Roofline timeline: the sampler thread reading counters and the pool's
# queue-depth gauge while morsel workers run, and sampler start/stop
# racing query execution and service teardown.
"${build_dir}/tests/timeline_test"
# TPC-H generation: key ranges written concurrently into shared, pre-sized
# columns with range-local dictionaries, then the in-order merge and the
# parallel code remap (including a generation started on a pool worker).
# Storage and .tbl loading ride along as the generator's inputs/outputs.
"${build_dir}/tests/dbgen_test"
"${build_dir}/tests/storage_test"
"${build_dir}/tests/tbl_io_test"
# Operator kernels: filter selections written by morsels into slices of one
# shared buffer, the string predicates' dictionary pass over dictionary
# morsels, pointer gathers and typed join probes, and hash aggregation's
# chunk tables built on pool workers and merged state to state (every key
# reader and AggFn, the million-group case included), each at 4 threads
# with small morsels; plus all 22 queries in that configuration (golden
# answers and OpStats) and the LIKE matcher the dictionary pass calls.
"${build_dir}/tests/exec_test"
"${build_dir}/tests/kernel_test"
"${build_dir}/tests/golden_query_test"
"${build_dir}/tests/common_test"

echo "TSan parallel + obs test pass: OK"
