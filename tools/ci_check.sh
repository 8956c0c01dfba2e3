#!/bin/sh
# One-command CI gate: everything a change must pass before merging.
#
#   1. Tier-1: regular build + full ctest suite (the contract every
#      PR is held to).
#   2. Serve smoke: flag values outside the number grammar or their
#      range must be refused (exit 2, naming the flag) before
#      anything starts. Then train a model file and start the real
#      daemon on it the way perfbench does (--model, --port 0,
#      --port-file, --drain-ms 2000) plus an access log, hit
#      /healthz + /predict (edge bodies at the input bounds, and one
#      body twice for byte-identical answers) + /metrics plus the
#      /debug/{vars,slo,trace,access} views over actual sockets (one
#      /predict's X-Request-Id must name exactly one server.request
#      span and one access line, with the same status and bytes), then
#      SIGTERM it and assert a clean drain (exit 0)
#      that flushed at least one access-log record. The in-memory
#      transports cover the core exhaustively; this is the one place
#      the epoll/signal path is exercised end-to-end.
#   3. Replay smoke: compile a small scenario script through
#      `tomur_cli replay --scenario` and assert the run recovers
#      from its regime change (the CLI + DSL + autopilot wiring,
#      end-to-end, without the minutes-long bench stage). Then a
#      persistence smoke through real files: train -> model file ->
#      predict, and an autopilot killed by --crash-after whose
#      --resume run exports the uninterrupted run's events (cmp).
#      Last, `monitor` and `autopilot --max-recalibrations 0` on the
#      same model and `step` scenario must export equal events (cmp):
#      the two commands are one replay loop.
#   4. Chaos smoke: a small seeded campaign through `tomur_cli
#      chaos` must pass with zero violations, and a planted
#      regression (--plant registry-no-commit) must be caught,
#      shrunk to a tiny repro, and replay deterministically — the
#      detect/shrink/replay loop proven live on every merge. A
#      hostile repro (a storm of 10^12 requests) must be refused
#      with exit 2 before it runs, without training a model.
#   5. Sanitizers: tools/run_sanitized_tests.sh (ASan+UBSan full
#      suite, TSan on the parallel-engine tests).
#
# Performance is not gated here: python3 perfbench/run.py measures
# the BENCHMARK.json workloads.
#
# Usage: tools/ci_check.sh
#   TOMUR_SKIP_TSAN=1      forwarded to run_sanitized_tests.sh
# Exits non-zero on the first failing stage.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir="$repo_root/build"
jobs="$(nproc 2>/dev/null || echo 4)"

echo "=== Tier 1: build + test suite ==="
cmake -B "$build_dir" -S "$repo_root"
cmake --build "$build_dir" -j "$jobs"
ctest --test-dir "$build_dir" --output-on-failure -j "$jobs"

echo ""
echo "=== Tier 2: serve smoke (daemon + graceful drain) ==="
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
# Every flag reads one number grammar into its own type and range.
for bad in "--port 1e10" "--quota -5" "--quota 1e300" \
    "--seed 18446744073709551616" "--faults +0.5" "--drain-ms nan"; do
    flag_status=0
    # shellcheck disable=SC2086  # the flag and its value are two words
    "$build_dir/tools/tomur_cli" serve FlowStats $bad \
        > "$smoke_dir/flag.log" 2>&1 || flag_status=$?
    if [ "$flag_status" -ne 2 ] ||
        ! grep -q -- "option '${bad%% *}'" "$smoke_dir/flag.log"; then
        echo "serve smoke: 'serve FlowStats $bad' exited" \
            "$flag_status, not 2 naming the flag" >&2
        exit 1
    fi
done
echo "serve smoke: out-of-grammar and out-of-range flags refused"

"$build_dir/tools/tomur_cli" train FlowMonitor \
    --out "$smoke_dir/m.model" > "$smoke_dir/train.log" 2>&1 || {
    echo "serve smoke: training the daemon's model failed" >&2
    cat "$smoke_dir/train.log" >&2
    exit 1
}
port_file="$smoke_dir/port"
"$build_dir/tools/tomur_cli" serve FlowMonitor \
    --model "$smoke_dir/m.model" --port 0 \
    --port-file "$port_file" --drain-ms 2000 \
    --access-log "$smoke_dir/access.jsonl" \
    > "$smoke_dir/serve.log" 2>&1 &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true; rm -rf "$smoke_dir"' \
    EXIT

# Wait for the daemon to load its model, bind and publish its port.
i=0
while [ ! -s "$port_file" ]; do
    if ! kill -0 "$serve_pid" 2>/dev/null; then
        echo "serve smoke: daemon died before binding" >&2
        cat "$smoke_dir/serve.log" >&2
        exit 1
    fi
    i=$((i + 1))
    if [ "$i" -gt 240 ]; then
        echo "serve smoke: daemon never wrote $port_file" >&2
        exit 1
    fi
    sleep 0.5
done

python3 - "$port_file" <<'EOF'
import json, math, sys, urllib.request

port = int(open(sys.argv[1]).read().strip())
base = f"http://127.0.0.1:{port}"

with urllib.request.urlopen(base + "/healthz", timeout=10) as r:
    health = json.load(r)
assert health["status"] == "ok", health

body = json.dumps({"flows": 20000, "size": 512, "mtbr": 400})
req = urllib.request.Request(base + "/predict",
                             data=body.encode(), method="POST")
with urllib.request.urlopen(req, timeout=10) as r:
    rid = r.headers["X-Request-Id"]
    pred = json.load(r)
assert pred.get("predicted_pps", 0) > 0, pred
assert rid, "no X-Request-Id on /predict"

def post(path, doc):
    req = urllib.request.Request(base + path, data=json.dumps(doc).encode(),
                                 method="POST")
    with urllib.request.urlopen(req, timeout=10) as r:
        assert r.status == 200, (path, doc, r.status)
        return r.read()

# Edge bodies at the input bounds answer 200 with a finite prediction
# and echo the profile they were given (a size below 64 B is clamped
# to 64). The prediction is positive, except at mtbr 1e12, where the
# regex accelerator does no work at all and the answer is 0.
for doc, echo in [({"size": 1}, {"size": 64}),
                  ({"mtbr": 0}, {"mtbr": 0}),
                  ({"mtbr": 1e12}, {"mtbr": 1e12}),
                  ({"flows": 1e9}, {"flows": 1000000000})]:
    ans = json.loads(post("/predict", doc))
    got = ans["predicted_pps"]
    assert math.isfinite(got) and (got > 0 or doc == {"mtbr": 1e12}), ans
    assert got >= 0, ans
    for key, want in echo.items():
        assert ans["profile"][key] == want, (doc, ans)
# One body twice: byte-identical answers.
twice = {"flows": 123457, "size": 777, "mtbr": 321.5}
assert post("/predict", twice) == post("/predict", twice)
assert post("/diagnose", twice) == post("/diagnose", twice)

with urllib.request.urlopen(base + "/metrics", timeout=10) as r:
    metrics = r.read().decode()
assert "tomur_server_requests_total" in metrics, metrics[:200]

# Live introspection: the /debug views must answer while serving.
with urllib.request.urlopen(base + "/debug/vars", timeout=10) as r:
    dbg = json.load(r)
assert "tomur_server_requests_total" in dbg, list(dbg)[:5]

with urllib.request.urlopen(base + "/debug/slo", timeout=10) as r:
    slo = r.read().decode()
assert "slo_summary" in slo and "objectives" in slo, slo[:200]

def jsonl(path):  # every line of a JSONL view must parse
    with urllib.request.urlopen(base + path, timeout=10) as r:
        return [json.loads(line) for line in r.read().decode().splitlines()]

# One request, one record: the first /predict has exactly one
# server.request span and one access line, and they agree.
trace = jsonl("/debug/trace")
spans = [t for t in trace if t.get("name") == "server.request"
         and t.get("request_id") == rid]
lines = [a for a in jsonl("/debug/access") if a.get("id") == rid]
assert len(spans) == 1 and len(lines) == 1, (rid, spans, lines)
assert lines[0]["path"] == "/predict", lines
assert int(spans[0]["status"]) == lines[0]["status"] == 200, (spans, lines)
assert int(spans[0]["bytes"]) == lines[0]["bytes"] > 0, (spans, lines)
gone = {"server.route", "server.handle", "server.write"}
assert not [t for t in trace if t.get("name") in gone], "sub-spans traced"
print("serve smoke: healthz/predict/metrics/debug answered "
      "correctly")
EOF

kill -TERM "$serve_pid"
smoke_status=0
wait "$serve_pid" || smoke_status=$?
trap - EXIT
if [ "$smoke_status" -ne 0 ]; then
    cat "$smoke_dir/serve.log" >&2 || true
    rm -rf "$smoke_dir"
    echo "serve smoke: daemon exit $smoke_status (wanted 0)" >&2
    exit 1
fi
# The drained daemon must have flushed at least one access line
# (one JSON object per answered request).
if ! grep -q '"verdict"' "$smoke_dir/access.jsonl"; then
    echo "serve smoke: $smoke_dir/access.jsonl has no records" >&2
    rm -rf "$smoke_dir"
    exit 1
fi
rm -rf "$smoke_dir"
echo "serve smoke: SIGTERM drained cleanly (exit 0, access log" \
    "written)"

echo ""
echo "=== Tier 3: replay smoke (scenario DSL -> autopilot) ==="
replay_dir=$(mktemp -d)
trap 'rm -rf "$replay_dir"' EXIT
cat > "$replay_dir/smoke.scn" <<'EOF'
# ci_check replay smoke: one flash crowd between steady shoulders.
base flows=16000 size=512 mtbr=600
steady n=12
flash peak=5 ramp=2 hold=3 decay=2
steady n=8
EOF
"$build_dir/tools/tomur_cli" replay FlowMonitor \
    --scenario "$replay_dir/smoke.scn" \
    --profile-out "$replay_dir/profile.txt" \
    > "$replay_dir/replay.log" 2>&1 || {
    echo "replay smoke: tomur_cli replay failed" >&2
    cat "$replay_dir/replay.log" >&2
    exit 1
}
grep -q "recovery: " "$replay_dir/replay.log" || {
    echo "replay smoke: no recovery line in output" >&2
    cat "$replay_dir/replay.log" >&2
    exit 1
}
grep -q "sampling profiler:" "$replay_dir/profile.txt" || {
    echo "replay smoke: profiler export missing" >&2
    exit 1
}
sed -n 's/^/  /p' "$replay_dir/replay.log"
echo "replay smoke: scenario ran through the autopilot"

# Persistence smoke, through real files: a trained model file loads
# for predict, and an autopilot killed mid-run resumes from its
# checkpoint directory to the event stream of an uninterrupted run.
cli="$build_dir/tools/tomur_cli"
"$cli" train FlowStats --out "$replay_dir/m.tomur" \
    > "$replay_dir/train.log" 2>&1 &&
    "$cli" predict FlowStats --with FlowMonitor \
        --model "$replay_dir/m.tomur" \
        > "$replay_dir/predict.log" 2>&1 || {
    echo "persistence smoke: train/predict round trip failed" >&2
    cat "$replay_dir/train.log" "$replay_dir/predict.log" >&2
    exit 1
}
"$cli" autopilot FlowStats --model "$replay_dir/m.tomur" \
    --checkpoint-dir "$replay_dir/ref" --checkpoint-every 8 \
    --events-out "$replay_dir/ref.jsonl" \
    > "$replay_dir/ref.log" 2>&1 || {
    echo "persistence smoke: uninterrupted autopilot failed" >&2
    cat "$replay_dir/ref.log" >&2
    exit 1
}
if "$cli" autopilot FlowStats --model "$replay_dir/m.tomur" \
    --checkpoint-dir "$replay_dir/ckpt" --checkpoint-every 8 \
    --crash-after 20 > "$replay_dir/crash.log" 2>&1; then
    echo "persistence smoke: --crash-after run exited 0" >&2
    exit 1
fi
"$cli" autopilot FlowStats --checkpoint-dir "$replay_dir/ckpt" \
    --checkpoint-every 8 --resume \
    --events-out "$replay_dir/resumed.jsonl" \
    > "$replay_dir/resume.log" 2>&1 || {
    echo "persistence smoke: --resume run failed" >&2
    cat "$replay_dir/resume.log" >&2
    exit 1
}
cmp "$replay_dir/ref.jsonl" "$replay_dir/resumed.jsonl" || {
    echo "persistence smoke: resumed events differ from the" \
        "uninterrupted run" >&2
    exit 1
}
echo "persistence smoke: model file loaded; crashed autopilot" \
    "resumed byte-identically"

# One replay loop: `monitor` is the autopilot with a retry budget of
# 0, so both commands must export the same event stream.
cat > "$replay_dir/s.scn" <<'EOF'
step flows=16000 size=1500 mtbr=600 repeats=12
step flows=64000 size=1500 mtbr=600 repeats=12
step flows=16000 size=1500 mtbr=600 repeats=8
EOF
"$cli" monitor FlowStats --model "$replay_dir/m.tomur" \
    --scenario "$replay_dir/s.scn" \
    --events-out "$replay_dir/mon.jsonl" \
    > "$replay_dir/mon.log" 2>&1 &&
    "$cli" autopilot FlowStats --model "$replay_dir/m.tomur" \
        --max-recalibrations 0 --scenario "$replay_dir/s.scn" \
        --events-out "$replay_dir/ap.jsonl" \
        > "$replay_dir/ap.log" 2>&1 || {
    echo "one-loop smoke: monitor/autopilot run failed" >&2
    cat "$replay_dir/mon.log" "$replay_dir/ap.log" >&2
    exit 1
}
cmp "$replay_dir/mon.jsonl" "$replay_dir/ap.jsonl" || {
    echo "one-loop smoke: monitor and autopilot" \
        "--max-recalibrations 0 exported different events" >&2
    exit 1
}
trap - EXIT
rm -rf "$replay_dir"
echo "one-loop smoke: monitor equals autopilot with a budget of 0"

echo ""
echo "=== Tier 4: chaos smoke (campaign + planted regression) ==="
chaos_dir=$(mktemp -d)
trap 'rm -rf "$chaos_dir"' EXIT
# A healthy tree survives a small seeded campaign with zero
# violations (exit 0).
"$build_dir/tools/tomur_cli" chaos --seed 7 --runs 12 \
    --work-dir "$chaos_dir/clean" \
    > "$chaos_dir/clean.log" 2>&1 || {
    echo "chaos smoke: clean campaign reported violations" >&2
    cat "$chaos_dir/clean.log" >&2
    exit 1
}
grep -q " 0 violations" "$chaos_dir/clean.log" || {
    echo "chaos smoke: clean campaign summary missing" >&2
    cat "$chaos_dir/clean.log" >&2
    exit 1
}
# A planted registry bug must be detected (exit != 0), shrunk, and
# written out as a replayable repro.
if "$build_dir/tools/tomur_cli" chaos --seed 7 --runs 30 \
    --plant registry-no-commit \
    --work-dir "$chaos_dir/planted" \
    --repro-out "$chaos_dir/repro.chaos" \
    > "$chaos_dir/planted.log" 2>&1; then
    echo "chaos smoke: planted regression went undetected" >&2
    cat "$chaos_dir/planted.log" >&2
    exit 1
fi
if [ ! -s "$chaos_dir/repro.chaos" ]; then
    echo "chaos smoke: no repro written for planted failure" >&2
    cat "$chaos_dir/planted.log" >&2
    exit 1
fi
actions=$(grep -c '^action ' "$chaos_dir/repro.chaos" || true)
if [ "$actions" -gt 3 ]; then
    echo "chaos smoke: shrunk repro still has $actions actions" >&2
    cat "$chaos_dir/repro.chaos" >&2
    exit 1
fi
# The repro replays deterministically: still failing with the
# plant, passing without it.
if "$build_dir/tools/tomur_cli" chaos \
    --replay "$chaos_dir/repro.chaos" \
    --plant registry-no-commit \
    --work-dir "$chaos_dir/replay" \
    > "$chaos_dir/replay.log" 2>&1; then
    echo "chaos smoke: repro did not reproduce under plant" >&2
    cat "$chaos_dir/replay.log" >&2
    exit 1
fi
"$build_dir/tools/tomur_cli" chaos \
    --replay "$chaos_dir/repro.chaos" \
    --work-dir "$chaos_dir/replay2" \
    > "$chaos_dir/replay2.log" 2>&1 || {
    echo "chaos smoke: repro fails even without the plant" >&2
    cat "$chaos_dir/replay2.log" >&2
    exit 1
}
# A repro outside its kind's ranges is refused before it runs, and
# before the chaos world trains its model.
printf 'plan seed=1 target=serve\naction kind=queue_storm at=1 %s\n' \
    'magnitude=1e12 span=1 variant=0' > "$chaos_dir/hostile.chaos"
hostile_status=0
"$build_dir/tools/tomur_cli" chaos --replay "$chaos_dir/hostile.chaos" \
    --metrics-out "$chaos_dir/hostile.prom" \
    > "$chaos_dir/hostile.log" 2>&1 || hostile_status=$?
if [ "$hostile_status" -ne 2 ]; then
    echo "chaos smoke: hostile repro exited $hostile_status" >&2
    cat "$chaos_dir/hostile.log" >&2
    exit 1
fi
if [ ! -f "$chaos_dir/hostile.prom" ] ||
    grep -q '^tomur_train_runs_total [1-9]' "$chaos_dir/hostile.prom"; then
    echo "chaos smoke: hostile repro trained a model before refusal" >&2
    exit 1
fi
trap - EXIT
rm -rf "$chaos_dir"
echo "chaos smoke: clean campaign green; planted regression" \
    "caught, shrunk ($actions actions), replayed; hostile repro" \
    "refused"

echo ""
echo "=== Tier 5: sanitizer passes ==="
"$repo_root/tools/run_sanitized_tests.sh"

echo ""
echo "ci_check: all stages passed"
