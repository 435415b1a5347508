#!/bin/sh
# CI gate: build, run the test suites, and prove the bench harness emits a
# well-formed perf-trajectory document.  Exits non-zero on any failure.
set -eu

cd "$(dirname "$0")/.."

echo "== dune build =="
dune build

echo "== dune build examples =="
dune build examples

echo "== api scan: no export, optional argument or field without a program use =="
# bin/api_scan.exe reads the typed trees that `dune build @check` leaves
# and lists the lib/ values that no program code names, the optional
# arguments that no program call supplies and the record fields that no
# code reads; program code is what a program can run, so a lib/
# function that only tests reach is no caller.  The committed
# bin/api_test_only.txt is that list, with a tag on every entry that
# says why it stays (hooks, oracles, helpers, dataset columns, the
# parked power-feed model, unit-tested internals).
# Each entry must carry one of the six tags the list's header defines,
# so an untagged entry or a misspelt tag fails, naming its line.  The
# tags are then dropped before the diff.  Any difference fails, so a new
# unused export (or a deletion that leaves the list stale) shows up here.
BAD_TAGS=$(grep -n -v -e '^#' -e '^$' bin/api_test_only.txt \
  | grep -v -E '#[[:space:]]*(hook|oracle|helper|column|parked|unit)[[:space:]]*$' || true)
[ -z "$BAD_TAGS" ] \
  || { printf '%s\n' "$BAD_TAGS" >&2; echo "check.sh: bin/api_test_only.txt lines above carry no tag or an unknown one (want hook, oracle, helper, column, parked or unit)" >&2; exit 1; }
dune build @check bin/api_scan.exe
./_build/default/bin/api_scan.exe _build/default > /tmp/api_scan.txt
sed -e 's/[[:space:]]*#.*//' -e '/^$/d' bin/api_test_only.txt | diff -u - /tmp/api_scan.txt \
  || { echo "check.sh: lib/ values, optional arguments or record fields without a program use changed (diff above); give a new one a use or delete it, and update bin/api_test_only.txt" >&2; exit 1; }
rm -f /tmp/api_scan.txt

echo "== dune runtest (SOLARSTORM_JOBS=2) =="
# Two worker domains for every Monte-Carlo consumer that doesn't pin
# ~jobs: the golden suites then prove the parallel engine reproduces the
# sequential byte-for-byte, on every CI run.
SOLARSTORM_JOBS=2 dune runtest --force

BENCH_JSON="${BENCH_JSON:-/tmp/bench.json}"
rm -f "$BENCH_JSON"

echo "== bench --fast --json $BENCH_JSON (self-baseline gate) =="
# Comparing a run against its own output is the deterministic exit-0 path
# of the regression gate: every delta is exactly +0.0%.
dune exec bench/main.exe -- --fast --json "$BENCH_JSON" --baseline "$BENCH_JSON" > /dev/null

test -s "$BENCH_JSON" || { echo "check.sh: $BENCH_JSON missing or empty" >&2; exit 1; }

# Structural sanity without assuming a JSON parser is installed: the
# document must be one object carrying the schema marker, a non-empty
# kernel list with timings, and a metrics object.
for needle in '"schema":"solarstorm-bench/1"' '"recommended_domain_count":' \
              '"kernels":[{' '"ns_per_run":' '"metrics":{' \
              '"name":"plan.compile"' '"name":"plan.sample"' '"name":"plan.sample-recompute"' \
              '"name":"plan.trials-seq"' '"name":"plan.trials-par1"' '"name":"plan.trials-par4"' \
              '"name":"sweep.grid-seq"' '"name":"sweep.grid-par4"' \
              '"name":"serve.parse-request"' '"name":"serve.request-cached"' \
              '"name":"serve.metrics-render"' '"name":"serve.throughput"' \
              '"name":"serve.throughput-par"' '"name":"obs.timeseries-sample"'; do
  grep -q -F "$needle" "$BENCH_JSON" \
    || { echo "check.sh: $BENCH_JSON malformed (missing $needle)" >&2; exit 1; }
done
case "$(head -c 1 "$BENCH_JSON")" in
  '{') ;;
  *) echo "check.sh: $BENCH_JSON does not start with '{'" >&2; exit 1 ;;
esac

# When python3 happens to be available, do a real parse too.
if command -v python3 > /dev/null 2>&1; then
  python3 - "$BENCH_JSON" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "solarstorm-bench/1", "bad schema"
assert isinstance(doc["recommended_domain_count"], int) \
    and doc["recommended_domain_count"] >= 1, "bad recommended_domain_count"
assert doc["kernels"] and all("ns_per_run" in k for k in doc["kernels"]), "bad kernels"
assert isinstance(doc["metrics"], dict), "bad metrics"
names = {k["name"] for k in doc["kernels"]}
for required in ("plan.compile", "plan.sample", "plan.sample-recompute",
                 "plan.trials-seq", "plan.trials-par1", "plan.trials-par4",
                 "sweep.grid-seq", "sweep.grid-par4",
                 "serve.parse-request", "serve.request-cached", "serve.metrics-render",
                 "serve.throughput", "serve.throughput-par", "obs.timeseries-sample"):
    assert required in names, f"missing kernel {required}"
EOF
fi

echo "== bench regression gate: injected 2x slowdown must trip =="
# Scaling the baseline by 0.5 makes every kernel look exactly 2x slower
# than baseline — the gate must exit non-zero, deterministically.
if dune exec bench/main.exe -- --fast --json /tmp/bench_regress.json \
     --baseline "$BENCH_JSON" --baseline-scale 0.5 > /dev/null 2>&1; then
  echo "check.sh: bench --baseline missed an injected 2x regression" >&2
  exit 1
fi
rm -f /tmp/bench_regress.json

echo "== bench regression gate: committed baseline =="
# Gate against the committed baseline with a lenient threshold: CI
# machines differ from the one that seeded BENCH_baseline.json, so this
# catches order-of-magnitude regressions, not noise.  Tune with
# BENCH_GATE_THRESHOLD (percent).
if [ ! -f BENCH_baseline.json ]; then
  echo "check.sh: seeding BENCH_baseline.json (commit it)"
  cp "$BENCH_JSON" BENCH_baseline.json
fi
dune exec bench/main.exe -- --fast --json /tmp/bench_gate.json \
  --baseline BENCH_baseline.json --threshold "${BENCH_GATE_THRESHOLD:-300}" > /dev/null
rm -f /tmp/bench_gate.json

echo "== parallel speedup gate: plan.trials-par4 vs plan.trials-seq =="
# The persistent-pool engine must actually win at 4 jobs — but only on a
# machine that has 4 cores to run them on.  A 1- or 2-core CI runner
# time-slices the worker domains and measures scheduling, not the engine,
# so the gate is skipped there with a notice.
CORES=$(getconf _NPROCESSORS_ONLN 2> /dev/null || echo 1)
if [ "$CORES" -lt 4 ]; then
  echo "check.sh: NOTICE: only $CORES core(s) online, skipping the par-beats-seq gate (needs >= 4)"
else
  SEQ_NS=$(sed -n 's/.*"name":"plan.trials-seq","ns_per_run":\([0-9.eE+-]*\).*/\1/p' "$BENCH_JSON")
  PAR_NS=$(sed -n 's/.*"name":"plan.trials-par4","ns_per_run":\([0-9.eE+-]*\).*/\1/p' "$BENCH_JSON")
  [ -n "$SEQ_NS" ] && [ -n "$PAR_NS" ] \
    || { echo "check.sh: could not read trial kernel timings from $BENCH_JSON" >&2; exit 1; }
  awk -v seq="$SEQ_NS" -v par="$PAR_NS" 'BEGIN { exit !(par + 0 < seq + 0) }' \
    || { echo "check.sh: plan.trials-par4 ($PAR_NS ns) not faster than plan.trials-seq ($SEQ_NS ns)" >&2; exit 1; }
  echo "check.sh: par4 beats seq ($PAR_NS ns < $SEQ_NS ns)"
fi

PROFILE_JSON="${PROFILE_JSON:-/tmp/solarstorm.trace.json}"
rm -f "$PROFILE_JSON"

echo "== simulate --profile $PROFILE_JSON (SOLARSTORM_JOBS=2) =="
# 2000 trials, not 200: the trial kernel is fast enough now that a tiny
# job can drain on the calling domain before the pool helper wakes up,
# leaving no second-domain spans for this gate to find.
SOLARSTORM_JOBS=2 dune exec bin/solarstorm.exe -- simulate --trials 2000 \
  --progress --profile "$PROFILE_JSON" > /tmp/simulate_profiled.out

test -s "$PROFILE_JSON" || { echo "check.sh: $PROFILE_JSON missing or empty" >&2; exit 1; }
for needle in '"traceEvents":[' '"ph":"B"' '"ph":"E"' '"name":"exec.worker"' \
              '"name":"plan.chunk"' '"tid":0' '"tid":1'; do
  grep -q -F "$needle" "$PROFILE_JSON" \
    || { echo "check.sh: $PROFILE_JSON malformed (missing $needle)" >&2; exit 1; }
done

if command -v python3 > /dev/null 2>&1; then
  python3 - "$PROFILE_JSON" <<'EOF'
import json, sys
from collections import Counter
doc = json.load(open(sys.argv[1]))
events = [e for e in doc["traceEvents"] if e.get("ph") in ("B", "E")]
per_tid = Counter(e["tid"] for e in events)
assert len(per_tid) >= 2, f"expected >= 2 domains in trace, got {sorted(per_tid)}"
assert all(n >= 1 for n in per_tid.values()), "empty per-domain event stream"
for e in events:
    assert e["pid"] == 1 and isinstance(e["ts"], float) and e["ts"] >= 0.0, e
EOF
fi

echo "== profiled/progress run output is byte-identical to plain runs =="
dune exec bin/solarstorm.exe -- simulate --trials 2000 --jobs 1 > /tmp/simulate_seq.out
dune exec bin/solarstorm.exe -- simulate --trials 2000 --jobs 4 > /tmp/simulate_par.out
cmp /tmp/simulate_seq.out /tmp/simulate_par.out \
  || { echo "check.sh: --jobs 4 changed simulate output" >&2; exit 1; }
cmp /tmp/simulate_seq.out /tmp/simulate_profiled.out \
  || { echo "check.sh: --profile/--progress changed simulate output" >&2; exit 1; }
rm -f /tmp/simulate_seq.out /tmp/simulate_par.out /tmp/simulate_profiled.out

echo "== solarstorm figures: byte identity at -j 1, 2 and 4 =="
# The whole figure pass must print exactly the bytes the end-to-end
# benchmark accepts (Workload.figures_digest), whatever the job count:
# at -j > 1 the figures render as concurrent pool tasks.
FIGURES_MD5=$(grep '^let figures_digest' bench/e2e/workload.ml | grep -o '[0-9a-f]\{32\}')
[ -n "$FIGURES_MD5" ] \
  || { echo "check.sh: no figures_digest in bench/e2e/workload.ml" >&2; exit 1; }
for j in 1 2 4; do
  dune exec bin/solarstorm.exe -- figures -j "$j" > "/tmp/figures_j$j.txt"
  GOT=$(md5sum < "/tmp/figures_j$j.txt" | cut -d ' ' -f 1)
  [ "$GOT" = "$FIGURES_MD5" ] \
    || { echo "check.sh: figures -j $j stdout MD5 $GOT, want $FIGURES_MD5" >&2; exit 1; }
done

echo "== solarstorm figures --id: one figure, the same bytes =="
# --id renders only its own figure; its output must be that figure's
# block of the full -j 1 pass.  An unknown id must exit 1.
awk '/^----- /{p = ($0 == "----- fig3 -----")} p' /tmp/figures_j1.txt > /tmp/figures_fig3.txt
[ -s /tmp/figures_fig3.txt ] || { echo "check.sh: no fig3 block in figures output" >&2; exit 1; }
dune exec bin/solarstorm.exe -- figures --id fig3 | cmp - /tmp/figures_fig3.txt \
  || { echo "check.sh: figures --id fig3 differs from the fig3 block of the full pass" >&2; exit 1; }
RC=0
dune exec bin/solarstorm.exe -- figures --id nope > /dev/null 2>&1 || RC=$?
[ "$RC" = 1 ] || { echo "check.sh: figures --id nope exited $RC, want 1" >&2; exit 1; }
rm -f /tmp/figures_j1.txt /tmp/figures_j2.txt /tmp/figures_j4.txt /tmp/figures_fig3.txt

echo "== solarstorm sweep: cross-network byte identity at -j 1, 2 and 4 =="
# The 18-cell grid over all three maps must print exactly the bytes
# pinned in test/test_sweep.ml (cross_network_digest), whatever the job
# count: the trial kernel skips death-0 cables, which are most of ITU.
SWEEP_MD5=$(grep '^let cross_network_digest' test/test_sweep.ml | grep -o '[0-9a-f]\{32\}')
[ -n "$SWEEP_MD5" ] \
  || { echo "check.sh: no cross_network_digest in test/test_sweep.ml" >&2; exit 1; }
for j in 1 2 4; do
  GOT=$(dune exec bin/solarstorm.exe -- sweep --axis network=submarine,intertubes,itu \
    --axis model=0.005,0.01,0.02,0.05,s1,s2 --axis trials=50 -j "$j" 2> /dev/null \
    | md5sum | cut -d ' ' -f 1)
  [ "$GOT" = "$SWEEP_MD5" ] \
    || { echo "check.sh: cross-network sweep -j $j stdout MD5 $GOT, want $SWEEP_MD5" >&2; exit 1; }
done

echo "== solarstorm sweep: full-scale ITU byte identity at -j 1 and 2 =="
# The largest dataset build: two full-scale ITU maps (seeds 42 and 7),
# which -j 2 builds concurrently.  Stdout must be the bytes pinned in
# test/test_sweep.ml (full_scale_itu_digest).
ITU_MD5=$(grep '^let full_scale_itu_digest' test/test_sweep.ml | grep -o '[0-9a-f]\{32\}')
[ -n "$ITU_MD5" ] \
  || { echo "check.sh: no full_scale_itu_digest in test/test_sweep.ml" >&2; exit 1; }
for j in 1 2; do
  GOT=$(dune exec bin/solarstorm.exe -- sweep --axis network=itu --axis itu_scale=1.0 \
    --axis seed=42,7 --axis model=s1 --axis trials=20 -j "$j" 2> /dev/null \
    | md5sum | cut -d ' ' -f 1)
  [ "$GOT" = "$ITU_MD5" ] \
    || { echo "check.sh: full-scale ITU sweep -j $j stdout MD5 $GOT, want $ITU_MD5" >&2; exit 1; }
done

echo "== solarstorm sweep: multi-seed grid byte identity at -j 1, 2 and 4 =="
# The cli-batch shape: 12 distinct networks (3 maps x 4 seeds), which
# -j > 1 builds concurrently before the first batch.  Concurrent builds
# once crashed on a lazy value forced from two domains.
CLI_AXES="--axis network=submarine,intertubes,itu --axis model=0.01,s1 --axis seed=3,4,5,6 --axis trials=50"
dune exec bin/solarstorm.exe -- sweep $CLI_AXES -j 1 > /tmp/sweep_seeds_j1.jsonl 2> /dev/null
for j in 2 4; do
  dune exec bin/solarstorm.exe -- sweep $CLI_AXES -j "$j" 2> /dev/null \
    | cmp - /tmp/sweep_seeds_j1.jsonl \
    || { echo "check.sh: multi-seed sweep -j $j differs from -j 1" >&2; exit 1; }
done
rm -f /tmp/sweep_seeds_j1.jsonl

echo "== solarstorm simulate: one-cell sweep parity and tiny spacing =="
# A simulate body is the sweep row of its one cell with "endpoint" in
# place of "cell".  A spacing far below a metre must still fail every
# repeatered cable: the repeater count saturates instead of wrapping.
dune exec bin/solarstorm.exe -- sweep --axis network=itu --axis model=s1 --axis seed=11 \
  --axis trials=37 2> /dev/null \
  | sed 's/^{"cell":0.0,/{"endpoint":"simulate",/' > /tmp/onecell_sweep.json
dune exec bin/solarstorm.exe -- simulate --json --network itu --model s1 --seed 11 \
  --trials 37 > /tmp/onecell_simulate.json
cmp /tmp/onecell_sweep.json /tmp/onecell_simulate.json \
  || { echo "check.sh: simulate --json differs from its one-cell sweep row" >&2; exit 1; }
dune exec bin/solarstorm.exe -- simulate --json --spacing 1e-300 \
  | grep -q -F '"cables_failed_pct":{"mean":100.0' \
  || { echo "check.sh: simulate --spacing 1e-300 did not fail every cable" >&2; exit 1; }
rm -f /tmp/onecell_sweep.json /tmp/onecell_simulate.json

# Start `solarstorm serve --port 0 ARGS...` in the background with its
# output in LOG, wait for its `listening on` line, and set SERVE_PID,
# SERVE_PORT and BASE.  WHAT names the server in the not-ready message.
# Usage: boot_serve LOG WHAT [ARGS...]
boot_serve() {
  boot_log=$1
  boot_what=$2
  shift 2
  _build/default/bin/solarstorm.exe serve --port 0 "$@" > "$boot_log" 2>&1 &
  SERVE_PID=$!
  await_serve "$boot_log" "$boot_what"
}

# The waiting half of boot_serve, for a server already started with
# SERVE_PID set.  Usage: await_serve LOG WHAT
await_serve() {
  i=0
  until grep -q 'listening on' "$1" 2> /dev/null; do
    i=$((i + 1))
    [ "$i" -le 100 ] || { echo "check.sh: $2 never became ready" >&2; kill "$SERVE_PID" 2> /dev/null; exit 1; }
    sleep 0.1
  done
  SERVE_PORT=$(sed -n 's|.*listening on http://127\.0\.0\.1:\([0-9]*\).*|\1|p' "$1")
  BASE="http://127.0.0.1:$SERVE_PORT"
}

echo "== solarstorm serve: smoke gate =="
# Boot the service on an ephemeral port, exercise every acceptance
# property over real HTTP, then prove SIGTERM drains to a clean exit 0.
SERVE_LOG=/tmp/serve_gate.log
SERVE_TRIALS=25
rm -f "$SERVE_LOG" /tmp/serve_sim1.json /tmp/serve_sim2.json /tmp/serve_cli.json /tmp/serve_metrics.txt
boot_serve "$SERVE_LOG" "serve"

curl -fsS "$BASE/healthz" | grep -q '"status":"ok"' \
  || { echo "check.sh: /healthz not ok" >&2; kill "$SERVE_PID" 2> /dev/null; exit 1; }

# The same POST twice: the repeat must be byte-identical and served from
# the result cache (hit counted, no further trials run).
SERVE_BODY="{\"trials\":$SERVE_TRIALS,\"seed\":11}"
curl -fsS -d "$SERVE_BODY" "$BASE/simulate" > /tmp/serve_sim1.json
curl -fsS -d "$SERVE_BODY" "$BASE/simulate" > /tmp/serve_sim2.json
cmp /tmp/serve_sim1.json /tmp/serve_sim2.json \
  || { echo "check.sh: repeated /simulate was not byte-identical" >&2; kill "$SERVE_PID" 2> /dev/null; exit 1; }

curl -fsS "$BASE/metrics" > /tmp/serve_metrics.txt
grep -q '^server_cache_hits 1$' /tmp/serve_metrics.txt \
  || { echo "check.sh: /metrics shows no cache hit for the repeated POST" >&2; kill "$SERVE_PID" 2> /dev/null; exit 1; }
grep -q "^plan_trials $SERVE_TRIALS\$" /tmp/serve_metrics.txt \
  || { echo "check.sh: cache hit re-ran trials (plan_trials != $SERVE_TRIALS)" >&2; kill "$SERVE_PID" 2> /dev/null; exit 1; }
grep -q '^server_requests ' /tmp/serve_metrics.txt \
  || { echo "check.sh: /metrics missing server_requests" >&2; kill "$SERVE_PID" 2> /dev/null; exit 1; }

# The HTTP body is byte-identical to the CLI's --json output for the
# same parameters: one shared compute + encode path.
dune exec bin/solarstorm.exe -- simulate --json --trials "$SERVE_TRIALS" --seed 11 > /tmp/serve_cli.json
cmp /tmp/serve_sim1.json /tmp/serve_cli.json \
  || { echo "check.sh: HTTP /simulate body differs from CLI --json output" >&2; kill "$SERVE_PID" 2> /dev/null; exit 1; }

kill -TERM "$SERVE_PID"
if ! wait "$SERVE_PID"; then
  echo "check.sh: serve did not exit 0 on SIGTERM" >&2
  exit 1
fi
grep -q 'solarstorm serve: stopped' "$SERVE_LOG" \
  || { echo "check.sh: serve did not log a clean drain" >&2; exit 1; }
rm -f /tmp/serve_sim1.json /tmp/serve_sim2.json /tmp/serve_cli.json /tmp/serve_metrics.txt

echo "== solarstorm serve: observability gate =="
# Boot with the full observability surface on (--log, --trace-seed,
# --profile), prove the access log and the X-Trace-Id header agree, that
# the id survives into the Chrome trace, that /statusz answers, that
# loadgen reports a well-formed bench document — and that none of it
# changes a single response byte.
ACCESS_LOG=/tmp/serve_access.jsonl
SERVE_TRACE=/tmp/serve_trace.json
OBS_LOG=/tmp/serve_obs.log
rm -f "$ACCESS_LOG" "$SERVE_TRACE" "$OBS_LOG" /tmp/serve_obs_headers.txt \
  /tmp/serve_obs_sim.json /tmp/serve_obs_cli.json /tmp/loadgen_gate.json \
  /tmp/loadgen_localhost.json
boot_serve "$OBS_LOG" "observability serve" --trace-seed 42 \
  --log "$ACCESS_LOG" --profile "$SERVE_TRACE"

# One traced request, response headers captured.
curl -fsS -D /tmp/serve_obs_headers.txt -d "$SERVE_BODY" "$BASE/simulate" > /tmp/serve_obs_sim.json
TRACE_ID=$(tr -d '\r' < /tmp/serve_obs_headers.txt | sed -n 's/^[Xx]-[Tt]race-[Ii]d: *//p')
case "$TRACE_ID" in
  [0-9a-f][0-9a-f][0-9a-f][0-9a-f][0-9a-f][0-9a-f][0-9a-f][0-9a-f][0-9a-f][0-9a-f][0-9a-f][0-9a-f][0-9a-f][0-9a-f][0-9a-f][0-9a-f]) ;;
  *) echo "check.sh: X-Trace-Id missing or not 16 hex chars: '$TRACE_ID'" >&2; kill "$SERVE_PID" 2> /dev/null; exit 1 ;;
esac

# Logging and tracing must not change a single body byte.
dune exec bin/solarstorm.exe -- simulate --json --trials "$SERVE_TRIALS" --seed 11 > /tmp/serve_obs_cli.json
cmp /tmp/serve_obs_sim.json /tmp/serve_obs_cli.json \
  || { echo "check.sh: --log/--trace-seed changed the /simulate body" >&2; kill "$SERVE_PID" 2> /dev/null; exit 1; }

# The access log carries the same id the client saw.
grep -q '"event":"http.access"' "$ACCESS_LOG" \
  || { echo "check.sh: $ACCESS_LOG has no http.access line" >&2; kill "$SERVE_PID" 2> /dev/null; exit 1; }
grep -q "\"trace\":\"$TRACE_ID\"" "$ACCESS_LOG" \
  || { echo "check.sh: access log does not carry trace $TRACE_ID" >&2; kill "$SERVE_PID" 2> /dev/null; exit 1; }
if command -v python3 > /dev/null 2>&1; then
  python3 - "$ACCESS_LOG" <<'EOF'
import json, sys
lines = [l for l in open(sys.argv[1]) if l.strip()]
assert lines, "empty access log"
for line in lines:
    doc = json.loads(line)  # every line must be one valid JSON object
    assert {"ts_ns", "level", "event"} <= doc.keys(), doc
access = [d for d in map(json.loads, lines) if d["event"] == "http.access"]
assert any(d["path"] == "/simulate" and d["status"] == 200 for d in access), access
EOF
fi

# /statusz: uptime, request counts, latency quantiles, cache occupancy.
curl -fsS "$BASE/statusz" | grep -q '"status":"ok"' \
  || { echo "check.sh: /statusz not ok" >&2; kill "$SERVE_PID" 2> /dev/null; exit 1; }
curl -fsS "$BASE/statusz" | grep -q '"latency_ms":{"count"' \
  || { echo "check.sh: /statusz missing latency block" >&2; kill "$SERVE_PID" 2> /dev/null; exit 1; }

# /metrics now renders the SLO quantile family next to the histogram.
curl -fsS "$BASE/metrics" | grep -q 'server_request_ms_quantile{q="0.99"}' \
  || { echo "check.sh: /metrics missing latency quantile gauges" >&2; kill "$SERVE_PID" 2> /dev/null; exit 1; }

# loadgen smoke run: the report must be a solarstorm-bench/1 document.
_build/default/bin/solarstorm.exe loadgen --url "$BASE/healthz" \
  --connections 2 --requests 40 > /tmp/loadgen_gate.json 2> /dev/null \
  || { echo "check.sh: loadgen run failed" >&2; kill "$SERVE_PID" 2> /dev/null; exit 1; }
for needle in '"schema":"solarstorm-bench/1"' '"mode":"loadgen"' \
              '"name":"loadgen.latency-p50"' '"name":"loadgen.latency-p99"' \
              '"name":"loadgen.ns-per-request"' '"loadgen.req_per_s"' \
              '"loadgen.elapsed_s"'; do
  grep -q -F "$needle" /tmp/loadgen_gate.json \
    || { echo "check.sh: loadgen report malformed (missing $needle)" >&2; kill "$SERVE_PID" 2> /dev/null; exit 1; }
done
if command -v python3 > /dev/null 2>&1; then
  python3 - /tmp/loadgen_gate.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "solarstorm-bench/1" and doc["mode"] == "loadgen"
assert doc["metrics"]["loadgen.requests"] == 40, doc["metrics"]
assert doc["metrics"]["loadgen.errors"] == 0, doc["metrics"]
assert doc["metrics"]["loadgen.req_per_s"] > 0, doc["metrics"]
assert doc["metrics"]["loadgen.elapsed_s"] > 0, doc["metrics"]
names = {k["name"] for k in doc["kernels"]}
assert {"loadgen.latency-mean", "loadgen.latency-p50",
        "loadgen.latency-p95", "loadgen.latency-p99",
        "loadgen.ns-per-request"} <= names, names
EOF
fi

# The same server by host name: loadgen resolves "localhost" and tries
# each address it lists.
_build/default/bin/solarstorm.exe loadgen --url "http://localhost:$SERVE_PORT/healthz" \
  --requests 20 > /tmp/loadgen_localhost.json 2> /dev/null \
  || { echo "check.sh: loadgen against localhost failed" >&2; kill "$SERVE_PID" 2> /dev/null; exit 1; }
grep -q -F '"schema":"solarstorm-bench/1"' /tmp/loadgen_localhost.json \
  || { echo "check.sh: loadgen against localhost printed no solarstorm-bench/1 document" >&2; kill "$SERVE_PID" 2> /dev/null; exit 1; }

# Drain; the profile is written after the listener stops.
kill -TERM "$SERVE_PID"
if ! wait "$SERVE_PID"; then
  echo "check.sh: observability serve did not exit 0 on SIGTERM" >&2
  exit 1
fi
test -s "$SERVE_TRACE" || { echo "check.sh: $SERVE_TRACE missing or empty" >&2; exit 1; }
grep -q "\"args\":{\"trace\":\"$TRACE_ID\"}" "$SERVE_TRACE" \
  || { echo "check.sh: trace $TRACE_ID not findable in $SERVE_TRACE" >&2; exit 1; }
grep -q '"name":"server.request"' "$SERVE_TRACE" \
  || { echo "check.sh: $SERVE_TRACE has no server.request span" >&2; exit 1; }
rm -f /tmp/serve_obs_headers.txt /tmp/serve_obs_sim.json /tmp/serve_obs_cli.json \
  /tmp/loadgen_gate.json /tmp/loadgen_localhost.json

echo "== solarstorm serve: worker pool gate =="
# The worker domains must be invisible in the bytes: every analysis
# endpoint answers byte-identically whether one worker or four are
# running, four workers survive more client connections than workers,
# per-worker /statusz counters sum to the request total, and the shared
# cache counts one hit per concurrent repeated POST — exactly.
W1_LOG=/tmp/serve_w1.log
W4_LOG=/tmp/serve_w4.log
rm -f "$W1_LOG" "$W4_LOG" /tmp/w1_*.json /tmp/w4_*.json /tmp/conc_*.json \
  /tmp/pool_warm.json /tmp/pool_statusz.json /tmp/loadgen_pool.json /tmp/pool_metrics.txt

boot_serve "$W1_LOG" "--workers 1 serve" --workers 1
curl -fsS -d "$SERVE_BODY" "$BASE/simulate" > /tmp/w1_sim.json
curl -fsS -d '{"event":"carrington","trials":25}' "$BASE/scenario" > /tmp/w1_scn.json
curl -fsS -d '{"trials":25}' "$BASE/countries" > /tmp/w1_cty.json
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || { echo "check.sh: --workers 1 serve did not exit 0" >&2; exit 1; }

boot_serve "$W4_LOG" "--workers 4 serve" --workers 4
grep -q 'listening on .*(4 workers)' "$W4_LOG" \
  || { echo "check.sh: --workers 4 serve did not report its pool size" >&2; kill "$SERVE_PID" 2> /dev/null; exit 1; }

curl -fsS -d "$SERVE_BODY" "$BASE/simulate" > /tmp/w4_sim.json
curl -fsS -d '{"event":"carrington","trials":25}' "$BASE/scenario" > /tmp/w4_scn.json
curl -fsS -d '{"trials":25}' "$BASE/countries" > /tmp/w4_cty.json
for ep in sim scn cty; do
  cmp "/tmp/w1_$ep.json" "/tmp/w4_$ep.json" \
    || { echo "check.sh: --workers 4 changed the $ep response bytes" >&2; kill "$SERVE_PID" 2> /dev/null; exit 1; }
done

# Concurrent repeated POSTs of one fresh body: the warm-up is the only
# miss, every concurrent repeat is one counted hit with the warm bytes.
CONC_BODY='{"trials":7,"seed":3}'
curl -fsS -d "$CONC_BODY" "$BASE/simulate" > /tmp/pool_warm.json
CONC_PIDS=""
for i in 1 2 3 4 5 6 7 8; do
  curl -fsS -d "$CONC_BODY" "$BASE/simulate" > "/tmp/conc_$i.json" &
  CONC_PIDS="$CONC_PIDS $!"
done
for p in $CONC_PIDS; do
  wait "$p" || { echo "check.sh: a concurrent POST failed" >&2; kill "$SERVE_PID" 2> /dev/null; exit 1; }
done
for i in 1 2 3 4 5 6 7 8; do
  cmp /tmp/pool_warm.json "/tmp/conc_$i.json" \
    || { echo "check.sh: concurrent POST $i returned different bytes" >&2; kill "$SERVE_PID" 2> /dev/null; exit 1; }
done
curl -fsS "$BASE/metrics" > /tmp/pool_metrics.txt
grep -q '^server_cache_hits 8$' /tmp/pool_metrics.txt \
  || { echo "check.sh: expected exactly 8 cache hits under concurrency, got: $(grep '^server_cache_hits' /tmp/pool_metrics.txt)" >&2; kill "$SERVE_PID" 2> /dev/null; exit 1; }

# More client concurrency than workers: 8 pipelining connections against
# a 4-worker pool must complete every request without an error.
_build/default/bin/solarstorm.exe loadgen --url "$BASE/healthz" \
  --connections 8 --requests 80 > /tmp/loadgen_pool.json 2> /dev/null \
  || { echo "check.sh: loadgen vs worker pool failed" >&2; kill "$SERVE_PID" 2> /dev/null; exit 1; }
if command -v python3 > /dev/null 2>&1; then
  python3 - /tmp/loadgen_pool.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["metrics"]["loadgen.requests"] == 80, doc["metrics"]
assert doc["metrics"]["loadgen.errors"] == 0, doc["metrics"]
EOF
else
  grep -q '"loadgen.requests":80' /tmp/loadgen_pool.json \
    || { echo "check.sh: loadgen vs worker pool dropped requests" >&2; kill "$SERVE_PID" 2> /dev/null; exit 1; }
fi

# /statusz: one row per worker, and their request counts sum to the
# process-wide total (both counters are bumped at the same instruction).
curl -fsS "$BASE/statusz" > /tmp/pool_statusz.json
if command -v python3 > /dev/null 2>&1; then
  python3 - /tmp/pool_statusz.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
rows = doc["workers"]
assert len(rows) == 4, f"expected 4 worker rows, got {rows}"
assert sum(r["requests"] for r in rows) == doc["requests"]["total"], doc
assert all(isinstance(r["busy_ms"], (int, float)) for r in rows), rows
EOF
else
  grep -q '"workers":\[{' /tmp/pool_statusz.json \
    || { echo "check.sh: /statusz has no worker rows" >&2; kill "$SERVE_PID" 2> /dev/null; exit 1; }
fi

kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || { echo "check.sh: --workers 4 serve did not exit 0 on SIGTERM" >&2; exit 1; }
grep -q 'solarstorm serve: stopped' "$W4_LOG" \
  || { echo "check.sh: --workers 4 serve did not log a clean drain" >&2; exit 1; }
rm -f /tmp/w1_*.json /tmp/w4_*.json /tmp/conc_*.json /tmp/pool_warm.json \
  /tmp/pool_statusz.json /tmp/loadgen_pool.json /tmp/pool_metrics.txt "$W1_LOG" "$W4_LOG"

echo "== solarstorm serve: descriptor exhaustion gate =="
# Under a 64-descriptor limit, 80 held connections run accept out of
# descriptors (EMFILE).  That is no newcomer for the pass, not a crash:
# the server logs a warn line, keeps serving, answers /healthz once the
# connections close, and still exits 0 on SIGTERM.
if command -v python3 > /dev/null 2>&1; then
  FD_LOG=/tmp/serve_fd.jsonl
  FD_OUT=/tmp/serve_fd.log
  rm -f "$FD_LOG" "$FD_OUT"
  ( ulimit -n 64; exec _build/default/bin/solarstorm.exe serve --port 0 --log "$FD_LOG" ) \
    > "$FD_OUT" 2>&1 &
  SERVE_PID=$!
  await_serve "$FD_OUT" "descriptor-limited serve"
  python3 - "$SERVE_PORT" 80 <<'EOF' || { echo "check.sh: could not hold connections against descriptor-limited serve" >&2; kill "$SERVE_PID" 2> /dev/null; exit 1; }
import socket, sys, time
port, n = int(sys.argv[1]), int(sys.argv[2])
socks = [socket.create_connection(("127.0.0.1", port)) for _ in range(n)]
time.sleep(1)
for s in socks:
    s.close()
EOF
  curl -fsS -m 10 "$BASE/healthz" | grep -q '"status":"ok"' \
    || { echo "check.sh: descriptor-limited serve stopped answering /healthz" >&2; kill "$SERVE_PID" 2> /dev/null; exit 1; }
  grep -q '"level":"warn","event":"http.accept.failed"' "$FD_LOG" \
    || { echo "check.sh: $FD_LOG has no http.accept.failed warn line" >&2; kill "$SERVE_PID" 2> /dev/null; exit 1; }
  kill -TERM "$SERVE_PID"
  wait "$SERVE_PID" || { echo "check.sh: descriptor-limited serve did not exit 0 on SIGTERM" >&2; exit 1; }
  rm -f "$FD_LOG" "$FD_OUT"
else
  echo "check.sh: NOTICE: no python3, skipping the descriptor exhaustion gate"
fi

echo "== solarstorm serve: max-pending bound gate =="
# select() watches descriptors below 1024 only, so --max-pending stops at
# 960: 961 is refused up front with exit 2.  At 960, a thousand held
# connections leave the server alive: the overflow gets 503s, and
# /healthz answers once they close.
MP_STATUS=0
timeout 10 _build/default/bin/solarstorm.exe serve --port 0 --max-pending 961 \
  > /dev/null 2>&1 || MP_STATUS=$?
[ "$MP_STATUS" = "2" ] \
  || { echo "check.sh: serve --max-pending 961 exited $MP_STATUS, want 2" >&2; exit 1; }
if command -v python3 > /dev/null 2>&1; then
  MP_OUT=/tmp/serve_mp.log
  rm -f "$MP_OUT"
  boot_serve "$MP_OUT" "--max-pending 960 serve" --max-pending 960
  python3 - "$SERVE_PORT" 1000 960 <<'EOF' || { echo "check.sh: --max-pending 960 did not shed exactly the overflow" >&2; kill "$SERVE_PID" 2> /dev/null; exit 1; }
import resource, socket, sys, time
port, n, cap = int(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3])
soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
if soft != resource.RLIM_INFINITY and soft < n + 64:
    resource.setrlimit(resource.RLIMIT_NOFILE, (min(n + 64, hard), hard))
socks = [socket.create_connection(("127.0.0.1", port)) for _ in range(n)]
for s in socks:
    s.setblocking(False)
shed, deadline = set(), time.time() + 20
while len(shed) < n - cap and time.time() < deadline:
    for i, s in enumerate(socks):
        try:
            if i not in shed and s.recv(64).startswith(b"HTTP/1.1 503"):
                shed.add(i)
        except BlockingIOError:
            pass
    time.sleep(0.05)
for s in socks:
    s.close()
assert len(shed) == n - cap, f"{len(shed)} connections shed, want {n - cap}"
EOF
  curl -fsS -m 10 "$BASE/healthz" | grep -q '"status":"ok"' \
    || { echo "check.sh: --max-pending 960 serve stopped answering /healthz" >&2; kill "$SERVE_PID" 2> /dev/null; exit 1; }
  kill -TERM "$SERVE_PID"
  wait "$SERVE_PID" || { echo "check.sh: --max-pending 960 serve did not exit 0 on SIGTERM" >&2; exit 1; }
  rm -f "$MP_OUT"
else
  echo "check.sh: NOTICE: no python3, skipping the held-connection half of the max-pending gate"
fi

echo "== solarstorm sweep: streaming grid gate =="
# The 64-cell bench grid (4 models x 4 itu scales x 4 duplicate trial
# values) collapses to exactly 4 compiled plans.  The gate proves the
# whole sweep contract over real interfaces: CLI output is byte-identical
# for any --jobs count, the de-chunked POST /sweep body equals the CLI
# bytes, the response really is chunked JSONL with the pinned framing,
# the dedup counters are exact on /metrics, and loadgen can drive the
# streaming endpoint from a --body-file grid.
SWEEP_LOG=/tmp/serve_sweep.log
SWEEP_GRID=/tmp/sweep_grid.json
rm -f "$SWEEP_LOG" "$SWEEP_GRID" /tmp/sweep_j1.jsonl /tmp/sweep_j4.jsonl \
  /tmp/sweep_http.jsonl /tmp/sweep_headers.txt /tmp/sweep_metrics.txt /tmp/loadgen_sweep.json
printf '%s' '{"model":[0.005,0.01,0.02,"s1"],"itu_scale":[0.1,0.2,0.3,0.4],"trials":[25,25,25,25]}' > "$SWEEP_GRID"
SWEEP_AXES='--axis model=0.005,0.01,0.02,s1 --axis itu_scale=0.1,0.2,0.3,0.4 --axis trials=25,25,25,25'
dune exec bin/solarstorm.exe -- sweep $SWEEP_AXES --jobs 1 > /tmp/sweep_j1.jsonl 2> /dev/null
dune exec bin/solarstorm.exe -- sweep $SWEEP_AXES --jobs 4 > /tmp/sweep_j4.jsonl 2> /dev/null
cmp /tmp/sweep_j1.jsonl /tmp/sweep_j4.jsonl \
  || { echo "check.sh: sweep --jobs 4 changed the streamed rows" >&2; exit 1; }
[ "$(wc -l < /tmp/sweep_j1.jsonl)" = "64" ] \
  || { echo "check.sh: sweep CLI streamed $(wc -l < /tmp/sweep_j1.jsonl) rows, want 64" >&2; exit 1; }

boot_serve "$SWEEP_LOG" "sweep serve"

# Exactly one POST of the grid, streamed (-N disables curl buffering).
curl -fsSN -D /tmp/sweep_headers.txt --data-binary "@$SWEEP_GRID" "$BASE/sweep" > /tmp/sweep_http.jsonl \
  || { echo "check.sh: POST /sweep failed" >&2; kill "$SERVE_PID" 2> /dev/null; exit 1; }
grep -qi '^transfer-encoding: *chunked' /tmp/sweep_headers.txt \
  || { echo "check.sh: /sweep response is not chunked" >&2; kill "$SERVE_PID" 2> /dev/null; exit 1; }
grep -qi '^content-type: *application/x-ndjson' /tmp/sweep_headers.txt \
  || { echo "check.sh: /sweep response is not ndjson" >&2; kill "$SERVE_PID" 2> /dev/null; exit 1; }
cmp /tmp/sweep_j1.jsonl /tmp/sweep_http.jsonl \
  || { echo "check.sh: POST /sweep body differs from sweep CLI output" >&2; kill "$SERVE_PID" 2> /dev/null; exit 1; }

# Dedup is observable: 64 cells, 64 rows, exactly 4 compiled plans.
curl -fsS "$BASE/metrics" > /tmp/sweep_metrics.txt
grep -q '^server_sweep_cells 64$' /tmp/sweep_metrics.txt \
  || { echo "check.sh: server_sweep_cells != 64: $(grep '^server_sweep_cells' /tmp/sweep_metrics.txt)" >&2; kill "$SERVE_PID" 2> /dev/null; exit 1; }
grep -q '^server_sweep_rows_streamed 64$' /tmp/sweep_metrics.txt \
  || { echo "check.sh: server_sweep_rows_streamed != 64" >&2; kill "$SERVE_PID" 2> /dev/null; exit 1; }
grep -q '^server_sweep_plans_compiled 4$' /tmp/sweep_metrics.txt \
  || { echo "check.sh: server_sweep_plans_compiled != 4: $(grep '^server_sweep_plans_compiled' /tmp/sweep_metrics.txt)" >&2; kill "$SERVE_PID" 2> /dev/null; exit 1; }
curl -fsS "$BASE/statusz" | grep -q '"sweep":{"cells":64.0' \
  || { echo "check.sh: /statusz missing the sweep block" >&2; kill "$SERVE_PID" 2> /dev/null; exit 1; }

# Every streamed line parses as one JSON object (when python3 is around).
if command -v python3 > /dev/null 2>&1; then
  python3 - /tmp/sweep_http.jsonl <<'EOF'
import json, sys
lines = [l for l in open(sys.argv[1]) if l.strip()]
assert len(lines) == 64, f"expected 64 JSONL rows, got {len(lines)}"
for i, line in enumerate(lines):
    doc = json.loads(line)
    assert doc["cell"] == i, (i, doc)
    assert {"network", "model", "spacing_km", "seed", "trials",
            "cables_failed_pct", "nodes_unreachable_pct"} <= doc.keys(), doc
EOF
fi

# The wire framing itself, not just the de-chunked body: one chunk per
# row and the terminal chunk, byte for byte as before rows were written
# in per-batch bursts (MD5 of curl --raw on this grid, measured on the
# commit before that change).
SWEEP_RAW_MD5=014a49f626382583b29b1c0b88008110
GOT=$(curl -fsSN --raw --data-binary "@$SWEEP_GRID" "$BASE/sweep" | md5sum | cut -d ' ' -f 1)
[ "$GOT" = "$SWEEP_RAW_MD5" ] \
  || { echo "check.sh: raw chunked /sweep MD5 $GOT, want $SWEEP_RAW_MD5" >&2; kill "$SERVE_PID" 2> /dev/null; exit 1; }

# A malformed grid is an ordinary fixed 400, not a truncated stream.
BAD_STATUS=$(curl -s -o /dev/null -w '%{http_code}' -d '{"bogus":[1]}' "$BASE/sweep")
[ "$BAD_STATUS" = "400" ] \
  || { echo "check.sh: bad grid answered $BAD_STATUS, want 400" >&2; kill "$SERVE_PID" 2> /dev/null; exit 1; }

# loadgen drives the streaming endpoint from --body-file and reports
# first-row latency and chunk counts.
_build/default/bin/solarstorm.exe loadgen --url "$BASE/sweep" \
  --body-file "$SWEEP_GRID" --connections 2 --requests 8 > /tmp/loadgen_sweep.json 2> /dev/null \
  || { echo "check.sh: loadgen vs /sweep failed" >&2; kill "$SERVE_PID" 2> /dev/null; exit 1; }
for needle in '"name":"loadgen.ttfb-p50"' '"name":"loadgen.ttfb-p95"' '"loadgen.chunks":'; do
  grep -q -F "$needle" /tmp/loadgen_sweep.json \
    || { echo "check.sh: loadgen sweep report missing $needle" >&2; kill "$SERVE_PID" 2> /dev/null; exit 1; }
done

kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || { echo "check.sh: sweep serve did not exit 0 on SIGTERM" >&2; exit 1; }

# The grid engine itself must win at 4 jobs on a machine with the cores
# to run them (same skip rule as the trial-engine gate above).
if [ "$CORES" -lt 4 ]; then
  echo "check.sh: NOTICE: only $CORES core(s) online, skipping the sweep par-beats-seq gate (needs >= 4)"
else
  SEQ_NS=$(sed -n 's/.*"name":"sweep.grid-seq","ns_per_run":\([0-9.eE+-]*\).*/\1/p' "$BENCH_JSON")
  PAR_NS=$(sed -n 's/.*"name":"sweep.grid-par4","ns_per_run":\([0-9.eE+-]*\).*/\1/p' "$BENCH_JSON")
  [ -n "$SEQ_NS" ] && [ -n "$PAR_NS" ] \
    || { echo "check.sh: could not read sweep kernel timings from $BENCH_JSON" >&2; exit 1; }
  awk -v seq="$SEQ_NS" -v par="$PAR_NS" 'BEGIN { exit !(par + 0 < seq + 0) }' \
    || { echo "check.sh: sweep.grid-par4 ($PAR_NS ns) not faster than sweep.grid-seq ($SEQ_NS ns)" >&2; exit 1; }
  echo "check.sh: sweep par4 beats seq ($PAR_NS ns < $SEQ_NS ns)"
fi
rm -f /tmp/sweep_j1.jsonl /tmp/sweep_j4.jsonl /tmp/sweep_http.jsonl \
  /tmp/sweep_headers.txt /tmp/sweep_metrics.txt /tmp/loadgen_sweep.json "$SWEEP_GRID" "$SWEEP_LOG"

echo "== solarstorm serve: self-monitoring gate =="
# Boot with a breachable throughput SLO ("stay under 40 req/s") and a
# fast sampler, drive sustained load, and prove the full loop: the alert
# fires into the JSONL log and /alertz, /varz series move between
# scrapes, /dashboard renders sparklines, the alert resolves once the
# load stops, and `solarstorm top` can scrape a frame.
MON_LOG=/tmp/serve_mon.jsonl
MON_OUT=/tmp/serve_mon.log
rm -f "$MON_LOG" "$MON_OUT" /tmp/varz1.json /tmp/varz2.json /tmp/dashboard.html \
  /tmp/alertz.json /tmp/loadgen_mon.json /tmp/top_frame.txt
boot_serve "$MON_OUT" "self-monitoring serve" --workers 4 \
  --sampler-step 0.2 --slo 'server.requests:rate<40:2s' --log "$MON_LOG"

# First /varz scrape before any load.
curl -fsS "$BASE/varz?window=60s" > /tmp/varz1.json \
  || { echo "check.sh: /varz failed" >&2; kill "$SERVE_PID" 2> /dev/null; exit 1; }
grep -q '"series":{' /tmp/varz1.json \
  || { echo "check.sh: /varz has no series object" >&2; kill "$SERVE_PID" 2> /dev/null; exit 1; }

# A malformed window must be a 400, not a 200 or a crash.
BAD_STATUS=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/varz?window=banana")
[ "$BAD_STATUS" = "400" ] \
  || { echo "check.sh: /varz?window=banana answered $BAD_STATUS, want 400" >&2; kill "$SERVE_PID" 2> /dev/null; exit 1; }

# Sustained load in the background (well above 40 req/s on loopback);
# --warmup exercises the warmup-exclusion path end to end.
_build/default/bin/solarstorm.exe loadgen --url "$BASE/healthz" \
  --connections 4 --requests 60000 --warmup 100 > /tmp/loadgen_mon.json 2> /dev/null &
LOADGEN_PID=$!

# The alert must fire while the load runs: watch /alertz.
FIRED=0
i=0
while [ "$i" -le 100 ]; do
  i=$((i + 1))
  curl -fsS "$BASE/alertz" > /tmp/alertz.json 2> /dev/null || true
  if grep -q '"state":"firing"' /tmp/alertz.json; then FIRED=1; break; fi
  sleep 0.2
done
[ "$FIRED" = "1" ] \
  || { echo "check.sh: SLO breach never fired in /alertz" >&2; kill "$SERVE_PID" "$LOADGEN_PID" 2> /dev/null; exit 1; }

# A second /varz scrape under load: the ring must have moved.
curl -fsS "$BASE/varz?window=60s" > /tmp/varz2.json
if cmp -s /tmp/varz1.json /tmp/varz2.json; then
  echo "check.sh: /varz did not change between scrapes under load" >&2
  kill "$SERVE_PID" "$LOADGEN_PID" 2> /dev/null
  exit 1
fi
if command -v python3 > /dev/null 2>&1; then
  python3 - /tmp/varz2.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["window_s"] == 60.0, doc["window_s"]
assert doc["samples"] >= 1, doc["samples"]
reqs = doc["series"]["server.requests"]
assert reqs["kind"] == "counter" and reqs["rate_per_s"] > 0, reqs
assert reqs["points"], "no points in server.requests series"
lat = doc["series"]["server.request.ms"]
assert lat["kind"] == "histogram" and "p99" in lat, lat
EOF
fi

# /dashboard: one self-contained HTML page with inline SVG sparklines.
curl -fsS "$BASE/dashboard" > /tmp/dashboard.html \
  || { echo "check.sh: /dashboard failed" >&2; kill "$SERVE_PID" "$LOADGEN_PID" 2> /dev/null; exit 1; }
grep -q '<svg' /tmp/dashboard.html \
  || { echo "check.sh: /dashboard has no sparkline svg" >&2; kill "$SERVE_PID" "$LOADGEN_PID" 2> /dev/null; exit 1; }
grep -q 'server.requests' /tmp/dashboard.html \
  || { echo "check.sh: /dashboard names no server metric" >&2; kill "$SERVE_PID" "$LOADGEN_PID" 2> /dev/null; exit 1; }

wait "$LOADGEN_PID" || { echo "check.sh: background loadgen failed" >&2; kill "$SERVE_PID" 2> /dev/null; exit 1; }
grep -q '"loadgen.warmup":400' /tmp/loadgen_mon.json \
  || { echo "check.sh: loadgen report does not carry the warmup count" >&2; kill "$SERVE_PID" 2> /dev/null; exit 1; }

# The firing transition also landed in the structured log.
grep -q '"event":"alert.firing"' "$MON_LOG" \
  || { echo "check.sh: $MON_LOG has no alert.firing line" >&2; kill "$SERVE_PID" 2> /dev/null; exit 1; }

# Load is gone: slow polling (~2 req/s) sits far under the objective, so
# the short burn-rate window recovers and the alert resolves.
RESOLVED=0
i=0
while [ "$i" -le 60 ]; do
  i=$((i + 1))
  sleep 0.5
  curl -fsS "$BASE/alertz" > /tmp/alertz.json 2> /dev/null || true
  if grep -q '"state":"ok"' /tmp/alertz.json && grep -q '"firing":0' /tmp/alertz.json; then
    RESOLVED=1
    break
  fi
done
[ "$RESOLVED" = "1" ] \
  || { echo "check.sh: SLO alert never resolved after the load stopped" >&2; kill "$SERVE_PID" 2> /dev/null; exit 1; }
grep -q '"event":"alert.resolved"' "$MON_LOG" \
  || { echo "check.sh: $MON_LOG has no alert.resolved line" >&2; kill "$SERVE_PID" 2> /dev/null; exit 1; }

# `solarstorm top` scrapes one frame off the live server and exits 0.
_build/default/bin/solarstorm.exe top --port "$SERVE_PORT" --count 1 \
  --interval 0.1 > /tmp/top_frame.txt \
  || { echo "check.sh: solarstorm top failed" >&2; kill "$SERVE_PID" 2> /dev/null; exit 1; }
grep -q 'solarstorm top' /tmp/top_frame.txt \
  || { echo "check.sh: top frame missing header" >&2; kill "$SERVE_PID" 2> /dev/null; exit 1; }
grep -q 'latency' /tmp/top_frame.txt \
  || { echo "check.sh: top frame missing latency row" >&2; kill "$SERVE_PID" 2> /dev/null; exit 1; }

kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || { echo "check.sh: self-monitoring serve did not exit 0 on SIGTERM" >&2; exit 1; }
rm -f /tmp/varz1.json /tmp/varz2.json /tmp/dashboard.html /tmp/alertz.json \
  /tmp/loadgen_mon.json /tmp/top_frame.txt "$MON_LOG" "$MON_OUT"

echo "check.sh: all green ($BENCH_JSON, $PROFILE_JSON, figures ok, serve ok, observability ok, worker pool ok, descriptor limits ok, sweep ok, self-monitoring ok)"
