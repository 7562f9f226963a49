#!/bin/sh
# Forensics smoke check: SIGKILL a flight-recording daemon mid-epoch
# under load, then require `poc-cli forensics` to reconstruct the
# incident from the dead process's artifacts alone — the FLIGHT box
# must be readable, the timeline must merge intake + flight + journal,
# and the verdict must name the in-flight epoch and phase.  The reader
# must also be strictly read-only: a second pass over the same store
# produces byte-identical output and modifies no file.
set -eu

cd "$(dirname "$0")/.."
dune build bin/poc_cli.exe

cli=_build/default/bin/poc_cli.exe
workdir=$(mktemp -d)
pids=""
cleanup() {
  for p in $pids; do kill "$p" 2>/dev/null || true; done
  rm -rf "$workdir"
}
trap cleanup EXIT

wait_for_socket() {
  i=0
  while [ ! -S "$1" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
      echo "FAIL: daemon socket $1 never appeared" >&2
      exit 1
    fi
    sleep 0.1
  done
}

# Fingerprint every file in a directory tree: path, size, checksum.
fingerprint() {
  find "$1" -type f | LC_ALL=C sort | while read -r f; do
    cksum "$f"
  done
}

# The kill must land inside the epoch batch.  A supervised epoch takes
# about 28 ms at this scale on a 2-core host, so a 64-epoch batch runs
# for well over a second and every kill time below falls inside it.
# Mid-batch, a SIGKILL can still land in the sliver between a durable
# journal record and the next phase open and leave nothing in flight;
# that window is tiny, and the retries cover it.
attempt=0
in_flight=""
while [ -z "$in_flight" ] && [ "$attempt" -lt 5 ]; do
  attempt=$((attempt + 1))
  case "$attempt" in
    1) kill_after=0.4 ;;
    2) kill_after=0.3 ;;
    3) kill_after=0.5 ;;
    4) kill_after=0.25 ;;
    *) kill_after=0.35 ;;
  esac
  root="$workdir/run$attempt"
  sock="$workdir/run$attempt.sock"

  "$cli" serve --root "$root" --socket "$sock" --flight \
    --seed 7 --sites 16 --bps 5 --epochs 64 \
    > "$workdir/serve$attempt.log" 2>&1 &
  daemon_pid=$!
  pids="$pids $daemon_pid"
  wait_for_socket "$sock"

  # Live load: three updates, then a full-horizon epoch batch; the
  # kill lands in the middle of it.
  "$cli" ctl --socket "$sock" \
    "BID 1 0 1.07 2" "MATRIX 2 1.04" "BID 3 1 0.95" > /dev/null
  "$cli" ctl --socket "$sock" "EPOCH 64" > /dev/null 2>&1 &
  epoch_pid=$!

  sleep "$kill_after"
  kill -9 "$daemon_pid" 2>/dev/null || true
  wait "$daemon_pid" 2>/dev/null || true
  pids=$(echo "$pids" | sed "s/ $daemon_pid//")
  wait "$epoch_pid" 2>/dev/null || true

  [ -f "$root/store/FLIGHT" ] || {
    echo "FAIL: killed daemon left no FLIGHT box" >&2; exit 1; }

  "$cli" forensics "$root/store" > "$workdir/forensics$attempt.txt"
  in_flight=$(grep "^in-flight: epoch" "$workdir/forensics$attempt.txt" || true)
  [ -n "$in_flight" ] || \
    echo "note: attempt $attempt killed between epochs; retrying" >&2
done

[ -n "$in_flight" ] || {
  echo "FAIL: forensics never named an in-flight epoch/phase" >&2
  cat "$workdir/forensics$attempt.txt" >&2
  exit 1
}
echo "ok: $in_flight"
report="$workdir/forensics$attempt.txt"

# The report merges all three sources into the timeline.
grep -q "^flight:    $root/store/FLIGHT" "$report" || {
  echo "FAIL: flight box missing from the source inventory" >&2; exit 1; }
grep -q "^journal:   segmented — durable through epoch" "$report" || {
  echo "FAIL: journal verdict missing" >&2; exit 1; }
grep -q "^intake:    $root/intake.log — 3 admissions" "$report" || {
  echo "FAIL: the three admitted updates are not in the intake inventory" >&2
  cat "$report" >&2
  exit 1
}
grep -q "admit" "$report" || {
  echo "FAIL: no admission entries in the timeline" >&2; exit 1; }
echo "ok: timeline merges intake, flight, and journal"

# The JSON document agrees on the verdict.
"$cli" forensics "$root/store" --json > "$workdir/forensics.json"
grep -q '"in_flight":{"epoch":' "$workdir/forensics.json" || {
  echo "FAIL: JSON report lost the in-flight verdict" >&2; exit 1; }
echo "ok: JSON report carries the in-flight verdict"

# Read-only: a second pass is byte-identical and touches nothing.
before=$(fingerprint "$root")
"$cli" forensics "$root/store" > "$workdir/forensics-again.txt"
after=$(fingerprint "$root")
cmp -s "$report" "$workdir/forensics-again.txt" || {
  echo "FAIL: forensics output not reproducible" >&2; exit 1; }
[ "$before" = "$after" ] || {
  echo "FAIL: forensics modified the store" >&2; exit 1; }
echo "ok: forensics is read-only and reproducible"

echo "forensics smoke: all checks passed"
