#!/bin/sh
# Observability smoke check: a traced market run and a traced chaos run
# must produce loadable Chrome trace-event JSON (spans for every epoch
# phase, fault events in the chaos trace) and a parseable Prometheus
# text exposition, and tracing must not change what the run computes.
# A post-settle crash must show in the crash run's trace and in
# forensics, and --flight or --segment-bytes without a store must be
# refused.  A traced daemon session must leave the same two files
# behind when it shuts down.
set -eu

cd "$(dirname "$0")/.."
dune build bin/poc_cli.exe

workdir=$(mktemp -d)
serve_pid=""
cleanup() {
  if [ -n "$serve_pid" ]; then kill "$serve_pid" 2>/dev/null || true; fi
  rm -rf "$workdir"
}
trap cleanup EXIT

cli=_build/default/bin/poc_cli.exe

"$cli" market --epochs 3 --sites 8 --bps 3 \
  --trace "$workdir/market.json" --metrics "$workdir/market.prom" \
  > "$workdir/market.txt"
"$cli" chaos --epochs 8 --sites 8 --bps 3 \
  --trace "$workdir/chaos.json" --metrics "$workdir/chaos.prom" \
  > "$workdir/chaos.txt"

# The traces are valid JSON in the trace-event envelope, the chaos one
# covering every supervised phase and carrying the injected faults.
python3 - "$workdir/market.json" "$workdir/chaos.json" <<'EOF'
import json, sys

for path in sys.argv[1:]:
    with open(path) as f:
        doc = json.load(f)
    events = doc["traceEvents"]
    assert doc["displayTimeUnit"] == "ms", path
    assert events, f"{path}: empty trace"
    names = {e["name"] for e in events}
    for e in events:
        assert e["ph"] in ("X", "i"), f"{path}: unexpected phase {e['ph']}"
        assert e["ts"] >= 0, f"{path}: negative timestamp"
    assert "epoch" in names and "auction" in names, f"{path}: {names}"

with open(sys.argv[2]) as f:
    chaos = json.load(f)["traceEvents"]
chaos_names = {e["name"] for e in chaos}
for phase in ("drift", "routing", "settlement"):
    assert phase in chaos_names, f"chaos trace missing {phase} span"
assert "fault" in chaos_names, "chaos trace missing injected-fault events"
print("ok: traces are valid Chrome trace-event JSON")
EOF

# The Prometheus files expose the per-phase histograms and counters.
for prom in "$workdir/market.prom" "$workdir/chaos.prom"; do
  for needle in \
    "# TYPE poc_epoch_seconds histogram" \
    "poc_epoch_seconds_count" \
    "poc_phase_auction_seconds_sum" \
    "# TYPE poc_vcg_auctions_total counter"; do
    if ! grep -q "^$needle" "$prom"; then
      echo "FAIL: $prom lacks '$needle'" >&2
      exit 1
    fi
  done
done
echo "ok: Prometheus expositions well-formed"

# Tracing must be observation-only: the same runs without --trace
# print byte-identical results (everything above the per-phase table,
# whose wall-clock numbers legitimately vary run to run).
"$cli" market --epochs 3 --sites 8 --bps 3 > "$workdir/market-plain.txt"
"$cli" chaos --epochs 8 --sites 8 --bps 3 > "$workdir/chaos-plain.txt"
for pair in market chaos; do
  for f in "$workdir/$pair.txt" "$workdir/$pair-plain.txt"; do
    awk '/per-phase wall clock:/{exit} {print}' "$f" > "$f.head"
  done
  diff -u "$workdir/$pair-plain.txt.head" "$workdir/$pair.txt.head"
done
echo "ok: traced runs compute identical results to untraced runs"

# The market has one epoch loop, journaled or not: a --journal run
# prints the same lines as a plain one above the per-phase table.
"$cli" market --epochs 3 --sites 8 --bps 3 --journal "$workdir/market-store" \
  > "$workdir/market-journal.txt"
awk '/per-phase wall clock:/{exit} {print}' "$workdir/market-journal.txt" \
  > "$workdir/market-journal.txt.head"
diff -u "$workdir/market-plain.txt.head" "$workdir/market-journal.txt.head"
echo "ok: market prints the same epochs with and without --journal"

# The domain pool must be observation-invisible too: --jobs 2 runs
# print the same results (and the same trace span names) as --jobs 1.
"$cli" market --epochs 3 --sites 8 --bps 3 --jobs 2 \
  --trace "$workdir/market-jobs2.json" > "$workdir/market-jobs2.txt"
"$cli" chaos --epochs 8 --sites 8 --bps 3 --jobs 2 \
  --trace "$workdir/chaos-jobs2.json" > "$workdir/chaos-jobs2.txt"
for pair in market chaos; do
  awk '/per-phase wall clock:/{exit} {print}' "$workdir/$pair-jobs2.txt" \
    > "$workdir/$pair-jobs2.txt.head"
  diff -u "$workdir/$pair-plain.txt.head" "$workdir/$pair-jobs2.txt.head"
done
python3 - "$workdir/market.json" "$workdir/market-jobs2.json" <<'EOF'
import json, sys

def span_names(path):
    with open(path) as f:
        return sorted({e["name"] for e in json.load(f)["traceEvents"]})

serial, jobs2 = (span_names(p) for p in sys.argv[1:])
assert serial == jobs2, f"span names diverge: {serial} vs {jobs2}"
print("ok: --jobs 2 trace covers the same span names")
EOF
echo "ok: --jobs 2 runs compute identical results to serial runs"

# A kill the fleet survives must not leave its epoch's spans open, and
# each pool worker nests its own: in a crash-matrix fleet, at one
# domain and at two, no epoch span has an epoch ancestor.
for jobs in 1 2; do
  "$cli" fleet --months 16 --matrix crash --sites 8 --bps 3 --epochs 4 \
    --topologies 2 --jobs "$jobs" --store "$workdir/fleet-$jobs" \
    --trace "$workdir/fleet-$jobs.json" > /dev/null
done
python3 - "$workdir/fleet-1.json" "$workdir/fleet-2.json" <<'EOF'
import json, sys

for path in sys.argv[1:]:
    with open(path) as f:
        spans = [e for e in json.load(f)["traceEvents"] if e["ph"] == "X"]
    by_id = {e["args"]["span_id"]: e for e in spans}
    epochs = [e for e in spans if e["name"] == "epoch"]
    assert len(epochs) >= 16 * 4, f"{path}: only {len(epochs)} epoch spans"
    for e in epochs:
        parent = by_id.get(e["args"]["parent_id"])
        while parent is not None:
            assert parent["name"] != "epoch", \
                f"{path}: epoch span {e['args']['span_id']} under another epoch"
            parent = by_id.get(parent["args"]["parent_id"])
print("ok: no fleet epoch span nests under another epoch")
EOF

# A post-settle crash is its epoch's last act: the crash run exits 10,
# its trace holds the crash instant, and forensics over the store names
# the crash point from the flight box.
status=0
"$cli" chaos --epochs 6 --sites 8 --bps 3 --journal "$workdir/crash-store" \
  --flight --crash 5:post_settle --trace "$workdir/crash.json" \
  > "$workdir/crash.txt" 2>&1 || status=$?
if [ "$status" -ne 10 ]; then
  cat "$workdir/crash.txt" >&2
  echo "FAIL: a post-settle crash run exited $status, not 10" >&2
  exit 1
fi
python3 - "$workdir/crash.json" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    events = json.load(f)["traceEvents"]
assert any(e["ph"] == "i" and e["name"] == "crash" for e in events), \
    "crash trace holds no crash instant"
print("ok: the crash run's trace holds its crash instant")
EOF
"$cli" forensics "$workdir/crash-store" > "$workdir/crash-forensics.txt"
grep -q "^in-flight: epoch 5 phase post_settle$" \
  "$workdir/crash-forensics.txt" || {
  cat "$workdir/crash-forensics.txt" >&2
  echo "FAIL: forensics does not name the post-settle crash" >&2
  exit 1
}
echo "ok: forensics names the post-settle crash"

# --flight and --segment-bytes need a store: without --journal, market
# refuses them, names --journal, and writes nothing.
repo=$(pwd)
for opt in "--flight" "--segment-bytes 512"; do
  nostore="$workdir/nostore"
  mkdir "$nostore"
  status=0
  # shellcheck disable=SC2086  # $opt is a flag and its argument
  (cd "$nostore" && "$repo/$cli" market --epochs 2 --sites 8 --bps 3 $opt) \
    > "$workdir/nostore.txt" 2> "$workdir/nostore.err" || status=$?
  if [ "$status" -ne 1 ] || ! grep -q -- "--journal" "$workdir/nostore.err"
  then
    cat "$workdir/nostore.err" >&2
    echo "FAIL: market $opt without --journal exited $status" >&2
    exit 1
  fi
  if [ -n "$(ls -A "$nostore")" ]; then
    ls -A "$nostore" >&2
    echo "FAIL: market $opt without --journal wrote files" >&2
    exit 1
  fi
  rmdir "$nostore"
done
echo "ok: store options without a store are refused"

# The daemon writes its trace and metrics files at shutdown: a traced
# `serve` session (a BID, an EPOCH, then SHUTDOWN) exits 0 and leaves
# trace-event JSON with the supervisor's epoch phase spans and a
# Prometheus exposition with the router's counters.
sock="$workdir/serve.sock"
"$cli" serve --root "$workdir/serve" --socket "$sock" \
  --sites 8 --bps 3 --epochs 4 \
  --trace "$workdir/serve.json" --metrics "$workdir/serve.prom" \
  > "$workdir/serve.log" 2>&1 &
serve_pid=$!
i=0
while [ ! -S "$sock" ]; do
  i=$((i + 1))
  if [ "$i" -gt 100 ]; then
    cat "$workdir/serve.log" >&2
    echo "FAIL: daemon socket never appeared" >&2
    exit 1
  fi
  sleep 0.1
done
"$cli" ctl --socket "$sock" "BID 1 0 1.07 2" "EPOCH 2" "SHUTDOWN" \
  > "$workdir/serve-ctl.txt"
status=0
wait "$serve_pid" || status=$?
serve_pid=""
if [ "$status" -ne 0 ]; then
  cat "$workdir/serve.log" >&2
  echo "FAIL: traced daemon exited $status" >&2
  exit 1
fi
grep -q "^BYE " "$workdir/serve-ctl.txt" || {
  cat "$workdir/serve-ctl.txt" >&2
  echo "FAIL: daemon did not acknowledge SHUTDOWN" >&2
  exit 1
}
python3 - "$workdir/serve.json" "$workdir/serve.prom" <<'EOF'
import json, sys

trace, prom = sys.argv[1:]
with open(trace) as f:
    doc = json.load(f)
events = doc["traceEvents"]
assert events, "serve trace is empty"
for e in events:
    assert e["ph"] in ("X", "i"), f"unexpected phase {e['ph']}"
    assert e["ts"] >= 0, "negative timestamp"
names = {e["name"] for e in events}
for span in ("epoch", "drift", "auction", "routing", "settlement", "journal"):
    assert span in names, f"serve trace missing the {span} span: {sorted(names)}"

samples = {}
with open(prom) as f:
    for line in f:
        line = line.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        name, value = line.rsplit(" ", 1)
        samples[name] = float(value)
assert samples.get("poc_router_dijkstra_total", 0) > 0, \
    "serve metrics lack poc_router_dijkstra_total"
print("ok: traced daemon session left valid trace and metrics files")
EOF

echo "trace smoke: all checks passed"
