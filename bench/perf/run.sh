#!/usr/bin/env bash
# Builds bench_perf from this checkout (into .bench_build/ at the checkout
# root; the repository's default build type, Release) and runs it with the
# given arguments, e.g.
#
#   bash bench/perf/run.sh --workload power_sf025_t1 --seed 7 --seconds 20 --trace 0
#
# Build output goes to stderr, so the benchmark's last stdout line stays its
# JSON result. Exits nonzero without a result when the build fails.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
build="${root}/.bench_build"
generator=()
if [[ ! -f "${build}/CMakeCache.txt" ]] && command -v ninja >/dev/null; then
  generator=(-G Ninja)
fi
cmake -S "${root}/bench/perf" -B "${build}" "${generator[@]}" >&2
cmake --build "${build}" --target bench_perf -j "$(nproc)" >&2
exec "${build}/bench_perf" "$@"
