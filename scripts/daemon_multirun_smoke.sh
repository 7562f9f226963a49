#!/bin/sh
# Multi-run daemon smoke check: `poc-cli serve --runs 4` with a storage
# fault injected into run 2 only, SIGKILL mid-epoch-batch under load,
# restart with `serve --resume`, and require (a) run 2 quarantined —
# before AND after the restart — with its store intact and readable by
# `poc-cli forensics`, (b) the quarantine visible on RUNS and the live
# Prometheus run-state gauge, and (c) every healthy run's finished
# store byte-identical to an uninterrupted single-run reference.
set -eu

cd "$(dirname "$0")/.."
dune build bin/poc_cli.exe

workdir=$(mktemp -d)
pids=""
cleanup() {
  for p in $pids; do kill "$p" 2>/dev/null || true; done
  rm -rf "$workdir"
}
trap cleanup EXIT

cli=_build/default/bin/poc_cli.exe
common="--seed 7 --sites 16 --bps 5 --epochs 8"
metrics_port=9858

# The accepted updates: all take effect at epoch 1, before any epoch
# runs, so neither the kill point nor run 2's crash can shift their
# apply-epochs.
send_bids() {
  "$cli" ctl --socket "$1" --run "$2" \
    "BID 1 0 1.07 2" "MATRIX 2 1.04" "BID 3 1 0.95"
}

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

# --- Reference: an uninterrupted single-run serve session --------------------

ref_root="$workdir/ref"
ref_sock="$workdir/ref.sock"
# shellcheck disable=SC2086  # $common is a flag list
"$cli" serve --root "$ref_root" --socket "$ref_sock" $common \
  > "$workdir/ref-serve.log" 2>&1 &
ref_pid=$!
pids="$pids $ref_pid"
wait_for_socket "$ref_sock"

send_bids "$ref_sock" 0 > /dev/null
"$cli" ctl --socket "$ref_sock" "EPOCH 6" "EPOCH 10" "SHUTDOWN" \
  > "$workdir/ref-ctl.txt"
wait "$ref_pid" || { echo "FAIL: reference daemon exited non-zero" >&2; exit 1; }
pids=$(echo "$pids" | sed "s/ $ref_pid//")
grep -q "BYE complete" "$workdir/ref-ctl.txt" || {
  echo "FAIL: reference run did not complete" >&2; exit 1; }
echo "ok: reference serve session completed"

# --- Four runs, a storage fault armed on run 2 only --------------------------

root="$workdir/multi"
sock="$workdir/multi.sock"
# shellcheck disable=SC2086
"$cli" serve --root "$root" --socket "$sock" --metrics-port "$metrics_port" \
  --runs 4 --fault-run 2 --attempt-cap 0 \
  --disk-fault 4:pre_settle:lying_fsync \
  $common > "$workdir/multi-serve.log" 2>&1 &
daemon_pid=$!
pids="$pids $daemon_pid"
wait_for_socket "$sock"

for r in 0 1 2 3; do
  send_bids "$sock" "$r" > /dev/null
done

# Run 2 settles toward its horizon and trips the lying-fsync power cut
# at epoch 4; with --attempt-cap 0 the first failure quarantines.  The
# other three runs must never notice.  ctl exits 5 on a terminal GONE.
rc=0
"$cli" ctl --socket "$sock" --run 2 "EPOCH 6" \
  > "$workdir/run2-epoch.txt" 2>&1 || rc=$?
[ "$rc" -eq 5 ] || {
  echo "FAIL: run 2's storage fault did not surface as GONE (rc=$rc)" >&2
  cat "$workdir/run2-epoch.txt" >&2
  exit 1
}
grep -q "GONE run=2 quarantined" "$workdir/run2-epoch.txt" || {
  echo "FAIL: run 2 not reported quarantined" >&2
  cat "$workdir/run2-epoch.txt" >&2
  exit 1
}
echo "ok: run 2 quarantined by its storage fault"

# --- SIGKILL mid-epoch while the healthy runs settle under load --------------

for r in 0 1 3; do
  "$cli" ctl --socket "$sock" --run "$r" "EPOCH 6" > /dev/null 2>&1 &
done
( while "$cli" ctl --socket "$sock" STATUS > /dev/null 2>&1; do :; done ) &
status_pid=$!
pids="$pids $status_pid"

sleep 0.5
kill -9 "$daemon_pid"
wait "$daemon_pid" 2>/dev/null && {
  echo "FAIL: daemon survived SIGKILL" >&2; exit 1; }
pids=$(echo "$pids" | sed "s/ $daemon_pid//")
wait "$status_pid" 2>/dev/null || true
pids=$(echo "$pids" | sed "s/ $status_pid//")
echo "ok: daemon SIGKILLed mid-epoch under multi-run load"

# --- Restart: quarantine survives, healthy runs resume -----------------------

rm -f "$sock"
# shellcheck disable=SC2086
"$cli" serve --root "$root" --socket "$sock" --resume \
  --metrics-port "$metrics_port" --attempt-cap 0 $common \
  > "$workdir/resumed-serve.log" 2>&1 &
daemon_pid=$!
pids="$pids $daemon_pid"
wait_for_socket "$sock"

i=0
until "$cli" ctl --socket "$sock" RUNS > "$workdir/resumed-runs.txt" \
  2>/dev/null; do
  i=$((i + 1))
  if [ "$i" -gt 50 ]; then
    echo "FAIL: resumed daemon never answered RUNS" >&2
    exit 1
  fi
  sleep 0.1
done
grep -q "run=2 state=quarantined" "$workdir/resumed-runs.txt" || {
  echo "FAIL: quarantine did not survive the restart" >&2
  cat "$workdir/resumed-runs.txt" >&2
  exit 1
}

# One wire format: a client that does not speak frames is closed at
# its first byte, so it sees EOF instead of waiting on silence.
python3 - "$sock" <<'PY' || {
import socket, sys
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.settimeout(2.0)
s.connect(sys.argv[1])
s.sendall(b"STATUS\n")
sys.exit(0 if s.recv(4096) == b"" else 1)
PY
  echo "FAIL: a line-protocol client was not closed with EOF" >&2
  exit 1
}
echo "ok: a line-protocol client gets EOF"

# Scoped requests to the quarantined run answer the terminal GONE.
rc=0
"$cli" ctl --socket "$sock" --run 2 STATUS \
  > "$workdir/run2-status.txt" 2>&1 || rc=$?
[ "$rc" -eq 5 ] && grep -q "^GONE" "$workdir/run2-status.txt" || {
  echo "FAIL: quarantined run did not answer GONE after restart (rc=$rc)" >&2
  cat "$workdir/run2-status.txt" >&2
  exit 1
}

# Every healthy run serves.
for r in 0 1 3; do
  "$cli" ctl --socket "$sock" --run "$r" STATUS \
    > "$workdir/run$r-status.txt"
  grep -q "^STATUS ok" "$workdir/run$r-status.txt" || {
    echo "FAIL: resumed run $r STATUS not ok" >&2
    cat "$workdir/run$r-status.txt" >&2
    exit 1
  }
done

# The run-state gauge on the live Prometheus endpoint.
curl -sf "http://127.0.0.1:$metrics_port/metrics" > "$workdir/metrics.txt" || {
  echo "FAIL: metrics endpoint unreachable" >&2; exit 1; }
grep -q 'poc_daemon_run_state{run="2",state="quarantined"} 1' \
  "$workdir/metrics.txt" || {
  echo "FAIL: quarantine not exported on poc_daemon_run_state" >&2
  exit 1
}
echo "ok: quarantine survived restart, visible over RUNS, GONE and Prometheus"

# --- Finish the healthy horizons, byte-compare against the reference ---------

for r in 0 1 3; do
  "$cli" ctl --socket "$sock" --run "$r" "EPOCH 10" > /dev/null
done
"$cli" ctl --socket "$sock" SHUTDOWN > "$workdir/resumed-ctl.txt"
wait "$daemon_pid" || { echo "FAIL: resumed daemon exited non-zero" >&2; exit 1; }
pids=$(echo "$pids" | sed "s/ $daemon_pid//")
grep -q "BYE" "$workdir/resumed-ctl.txt" || {
  echo "FAIL: shutdown did not answer BYE" >&2; exit 1; }

store_of() {
  case "$1" in
    0) echo "$root/store" ;;
    *) echo "$root/runs/0000$1/store" ;;
  esac
}
for r in 0 1 3; do
  store=$(store_of "$r")
  if [ "$(ls "$ref_root/store")" != "$(ls "$store")" ]; then
    echo "FAIL: run $r store holds a different file set" >&2
    exit 1
  fi
  for f in "$ref_root/store"/*; do
    [ -f "$f" ] || continue
    if ! cmp -s "$f" "$store/$(basename "$f")"; then
      echo "FAIL: run $r store file $(basename "$f") differs" >&2
      exit 1
    fi
  done
done
echo "ok: every healthy run byte-identical to the single-run reference"

# --- The quarantined store is intact and forensics-readable ------------------

q_store="$root/runs/00002/store"
[ -d "$q_store" ] || { echo "FAIL: quarantined store missing" >&2; exit 1; }
"$cli" forensics "$q_store" > "$workdir/forensics.txt" || {
  echo "FAIL: forensics cannot read the quarantined store" >&2; exit 1; }
[ -s "$workdir/forensics.txt" ] || {
  echo "FAIL: forensics produced no report" >&2; exit 1; }
echo "ok: quarantined store intact and forensics-readable"

echo "daemon multirun smoke: all checks passed"
