#!/bin/sh
# Configure, build, and run the test suite under sanitizers.
#
# Pass 1 (build-asan/, -DTOMUR_SANITIZE=address): the full suite under
# ASan + UBSan. The robustness tests feed load() a corpus of
# truncated/bit-flipped/hostile model files and train against a
# fault-injecting testbed; this pass is how "no crash" is upgraded to
# "no memory error and no UB".
#
# Pass 2 (build-tsan/, -DTOMUR_SANITIZE=thread): the parallel-engine
# tests (thread pool, batched testbed runs, concurrent training),
# the telemetry concurrency properties (striped metric shards,
# MeasurementCache stats, cross-thread span nesting), and the serving
# model registry (concurrent predictions vs hot-swaps) under TSan,
# which is how "bit-identical results" is upgraded to "and no data
# race produced them by luck".
#
# Usage: tools/run_sanitized_tests.sh [ctest-args...]
#   TOMUR_SKIP_TSAN=1   run only the ASan+UBSan pass
# Builds into build-asan/ and build-tsan/ next to the regular build
# directory.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
jobs="$(nproc 2>/dev/null || echo 4)"

echo "=== ASan + UBSan: full test suite ==="
asan_dir="$repo_root/build-asan"
cmake -B "$asan_dir" -S "$repo_root" -DTOMUR_SANITIZE=address
cmake --build "$asan_dir" -j "$jobs"

# halt_on_error keeps UBSan findings fatal so ctest reports them.
# The tests run in parallel like Tier 1's: on a 4-vCPU host the
# suite took 721 s serially and 230 s at -j4.
UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1" \
ASAN_OPTIONS="detect_leaks=0" \
    ctest --test-dir "$asan_dir" --output-on-failure -j "$jobs" "$@"

if [ "${TOMUR_SKIP_TSAN:-0}" = "1" ]; then
    echo "TOMUR_SKIP_TSAN=1: skipping TSan pass"
    exit 0
fi

echo ""
echo "=== TSan: parallel-engine tests ==="
# Derive the TSan target list from the sources rather than
# hand-maintaining it here: every test file that defines a
# "Parallel"-prefixed suite participates (that prefix is the marker
# the -R filter below selects on, so the two stay in sync by
# construction).
tsan_targets=$(grep -l '^TEST\(_F\)\{0,1\}(Parallel' \
    "$repo_root"/tests/test_*.cc | sed 's|.*/||; s|\.cc$||')
if [ -z "$tsan_targets" ]; then
    echo "no Parallel-suite test files found; nothing to TSan" >&2
    exit 1
fi
echo "TSan targets:" $tsan_targets

tsan_dir="$repo_root/build-tsan"
cmake -B "$tsan_dir" -S "$repo_root" -DTOMUR_SANITIZE=thread
# shellcheck disable=SC2086  # word-splitting the list is the point
cmake --build "$tsan_dir" -j "$jobs" \
    $(for t in $tsan_targets; do printf -- '--target %s ' "$t"; done)

# Force a real pool even on single-core CI so TSan sees actual
# cross-thread interleavings. Suite names in test_parallel.cc and
# test_telemetry.cc are prefixed "Parallel" so -R selects exactly
# them.
TOMUR_THREADS="${TOMUR_THREADS:-4}" \
TSAN_OPTIONS="halt_on_error=1" \
    ctest --test-dir "$tsan_dir" -R '^Parallel' \
        --output-on-failure "$@"
