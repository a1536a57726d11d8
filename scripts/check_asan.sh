#!/usr/bin/env bash
# Builds the full test suite under AddressSanitizer (+ leak detection) and
# runs it. Intended for CI: any out-of-bounds access, use-after-free, or
# leak in the engine, the observability subsystem, or the tests fails the
# script.
#
# Usage: scripts/check_asan.sh [build-dir]   (default: build-asan)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build-asan}"

cmake -S "${repo_root}" -B "${build_dir}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DWIMPI_SANITIZE=address

cmake --build "${build_dir}" -j "$(nproc)"

export ASAN_OPTIONS="halt_on_error=1 ${ASAN_OPTIONS:-}"
# Cached test databases (tests/parallel_queries_test.cc intentionally leaks
# its per-scale-factor engine::Database singletons) are not bugs.
export LSAN_OPTIONS="suppressions=${repo_root}/scripts/lsan_suppressions.txt ${LSAN_OPTIONS:-}"

ctest --test-dir "${build_dir}" --output-on-failure

echo "ASan test pass: OK"
