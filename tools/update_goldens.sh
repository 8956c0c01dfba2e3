#!/bin/sh
# Regenerate the golden observability fixtures in tests/golden/
# (canonical trace export + filtered metrics dump of the fixed
# scenario in tests/test_telemetry.cc, the monitor event stream of
# the fixed replay plus the nonstationary-scenario replay in
# tests/test_monitor.cc, the autopilot monitor+supervisor event
# stream of the crash/resume scenario in tests/test_supervisor.cc,
# the serving observatory's canonical access-log + SLO + trace
# streams of the fixed server scenario in tests/test_serve.cc, the
# chaos-campaign JSONL ledger of the fixed seeded campaign in
# tests/test_chaos.cc, and model_digests.txt, the contentDigest() of
# the six pinned trainings in tests/test_parallel.cc).
#
# Run this after intentionally changing instrumentation (new spans,
# new fields, new metrics) and commit the updated fixtures together
# with the code change — then review the fixture diff like any other
# diff: it IS the observable behaviour change.
#
# Usage: tools/update_goldens.sh
# Uses the regular build/ directory next to the repo root.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir="$repo_root/build"

cmake -B "$build_dir" -S "$repo_root"
cmake --build "$build_dir" -j "$(nproc 2>/dev/null || echo 4)" \
    --target test_telemetry test_monitor test_supervisor \
    --target test_serve test_chaos test_parallel

# The serial run writes the fixtures; the wide run then re-runs the
# scenario at TOMUR_THREADS=8 and asserts it reproduces them
# byte-for-byte, so a nondeterministic scenario cannot be committed.
TOMUR_UPDATE_GOLDENS=1 "$build_dir/tests/test_telemetry" \
    --gtest_filter='GoldenTrace.*'
TOMUR_UPDATE_GOLDENS=1 "$build_dir/tests/test_monitor" \
    --gtest_filter='MonitorGolden.*:ReplayGolden.*'
TOMUR_UPDATE_GOLDENS=1 "$build_dir/tests/test_supervisor" \
    --gtest_filter='AutopilotGolden.*'
TOMUR_UPDATE_GOLDENS=1 "$build_dir/tests/test_serve" \
    --gtest_filter='ServeObservatoryGolden.*'
TOMUR_UPDATE_GOLDENS=1 "$build_dir/tests/test_chaos" \
    --gtest_filter='ChaosGolden.*'
TOMUR_UPDATE_GOLDENS=1 "$build_dir/tests/test_parallel" \
    --gtest_filter='ModelDigestGolden.*'

echo ""
echo "updated fixtures:"
git -C "$repo_root" status --short tests/golden/
