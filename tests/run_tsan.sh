#!/usr/bin/env bash
# Build the LB solver tests under ThreadSanitizer and run them.
#
# The comm runtime simulates ranks as threads, so the solver's halo
# overlap path (send buffers packed after the frontier pass, bulk compute
# racing in-flight messages, receives scattered into the slab), the
# telemetry SPSC trace ring (rank thread producing, driver/test draining),
# and the serving broker (N client threads subscribing/receiving against
# the rank-0 serving thread) are exactly the kind of code TSan can vet. The
# partitioner and site-graph tests join because their CSR builds run on
# parallelFor worker threads (util/parallel.hpp). The core and steer tests
# join because their closed-loop tests run a steering client thread against
# the rank-0 broker session. The vis and multires tests join because
# GhostedField construction and refresh, and the octree/ROI gathers, are
# collectives across the rank threads.
# Usage: tests/run_tsan.sh [build-dir]
# Also registered under `ctest -L sanitize` when -DHEMO_SANITIZE_TESTS=ON.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-$repo_root/build-tsan}"

cmake -B "$build_dir" -S "$repo_root" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DHEMO_SANITIZE=thread
cmake --build "$build_dir" -j --target test_lb test_lb_fused test_telemetry \
  test_serve test_relay test_resilience test_recovery test_migration \
  test_partition test_geometry test_core test_steer test_vis test_multires

export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 second_deadlock_stack=1}"
"$build_dir/tests/test_lb"
"$build_dir/tests/test_lb_fused"
"$build_dir/tests/test_telemetry"
"$build_dir/tests/test_serve"
"$build_dir/tests/test_relay"
"$build_dir/tests/test_resilience"
"$build_dir/tests/test_recovery"
"$build_dir/tests/test_migration"
"$build_dir/tests/test_partition"
"$build_dir/tests/test_geometry"
"$build_dir/tests/test_core"
"$build_dir/tests/test_steer"
"$build_dir/tests/test_vis"
"$build_dir/tests/test_multires"
echo "TSan run clean."
