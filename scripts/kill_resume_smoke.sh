#!/bin/sh
# Kill-and-resume smoke check: crash the journaled chaos month at every
# injection phase, resume each journal store, and require the resumed
# stdout (epoch table, incident log, closing ledger) to be
# byte-identical to an uninterrupted run.  The first half journals
# without --segment-bytes (an unbounded store: one segment); the second
# half repeats the exercise under a byte budget: rotation, a torn
# manifest rename mid-rotation, a corrupt-byte power cut followed by
# scrub, and byte-diffs of the store files themselves.
set -eu

cd "$(dirname "$0")/.."
dune build examples/chaos_month.exe bin/poc_cli.exe

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

run=_build/default/examples/chaos_month.exe
cli=_build/default/bin/poc_cli.exe

# Byte-compare two segmented stores: same file names, same contents.
diff_stores() {
  a=$1; b=$2; label=$3
  if [ "$(ls "$a")" != "$(ls "$b")" ]; then
    echo "FAIL($label): stores hold different file sets" >&2
    exit 1
  fi
  for f in "$a"/*; do
    [ -f "$f" ] || continue
    if ! cmp -s "$f" "$b/$(basename "$f")"; then
      echo "FAIL($label): store file $(basename "$f") differs" >&2
      exit 1
    fi
  done
}

"$run" > "$workdir/uninterrupted.txt"

for phase in pre_auction pre_settle post_settle; do
  journal="$workdir/store-$phase"

  status=0
  "$run" --journal "$journal" --crash "5:$phase" \
    > "$workdir/crashed-$phase.txt" 2>/dev/null || status=$?
  if [ "$status" -ne 10 ]; then
    echo "FAIL($phase): expected crash exit code 10, got $status" >&2
    exit 1
  fi

  "$run" --resume "$journal" > "$workdir/resumed-$phase.txt" 2>/dev/null

  if ! diff -u "$workdir/uninterrupted.txt" "$workdir/resumed-$phase.txt"; then
    echo "FAIL($phase): resumed output differs from the uninterrupted run" >&2
    exit 1
  fi
  echo "ok: crash at 5:$phase resumed byte-identical"
done

# Without --segment-bytes the store never rotates: one directory, one
# segment, and scrub reads it as a store like any other.
store="$workdir/store-post_settle"
[ -d "$store" ] || { echo "FAIL(unbounded): $store is not a directory" >&2; exit 1; }
segs=$(ls "$store" | grep -c '\.seg$' || true)
if [ "$segs" -ne 1 ]; then
  echo "FAIL(unbounded): expected exactly one segment, got $segs" >&2
  exit 1
fi
"$cli" scrub --dry-run "$store" > "$workdir/scrub-unbounded.json" || {
  echo "FAIL(unbounded): scrub --dry-run exited $?" >&2; exit 1; }
grep -q '"mode":"segmented"' "$workdir/scrub-unbounded.json" || {
  echo "FAIL(unbounded): scrub report not segmented JSON" >&2; exit 1; }
echo "ok: unbounded store holds one segment and scrubs clean"

# A resumed (now complete) journal must be refused, not silently re-run.
if "$run" --resume "$store" >/dev/null 2>&1; then
  echo "FAIL: resuming a completed journal should fail" >&2
  exit 1
fi
echo "ok: completed journal refused"

# The same crash/resume cycle through the domain pool: outputs and the
# resumed journal must be byte-identical to the serial (--jobs 1) path.
"$run" --jobs 2 > "$workdir/uninterrupted-jobs2.txt"
if ! diff -u "$workdir/uninterrupted.txt" "$workdir/uninterrupted-jobs2.txt"; then
  echo "FAIL: --jobs 2 run differs from serial run" >&2
  exit 1
fi

journal="$workdir/store-jobs2"
status=0
"$run" --jobs 2 --journal "$journal" --crash "5:pre_settle" \
  > "$workdir/crashed-jobs2.txt" 2>/dev/null || status=$?
if [ "$status" -ne 10 ]; then
  echo "FAIL(jobs2): expected crash exit code 10, got $status" >&2
  exit 1
fi
"$run" --jobs 2 --resume "$journal" > "$workdir/resumed-jobs2.txt" 2>/dev/null
if ! diff -u "$workdir/uninterrupted.txt" "$workdir/resumed-jobs2.txt"; then
  echo "FAIL(jobs2): resumed output differs from the uninterrupted run" >&2
  exit 1
fi
echo "ok: --jobs 2 crash/resume byte-identical to serial"

# --- Rotating store ----------------------------------------------------------

budget=2048

# Reference: an uninterrupted rotating run.  Its store is the byte
# target every recovery below must reproduce.
"$run" --journal "$workdir/seg-ref" --segment-bytes "$budget" \
  > "$workdir/seg-uninterrupted.txt" 2>/dev/null
if ! diff -u "$workdir/uninterrupted.txt" "$workdir/seg-uninterrupted.txt"; then
  echo "FAIL(seg): rotating run output differs from the unbounded run" >&2
  exit 1
fi
segs=$(ls "$workdir/seg-ref" | grep -c '\.seg$')
if [ "$segs" -lt 2 ]; then
  echo "FAIL(seg): expected rotation to leave >= 2 segments, got $segs" >&2
  exit 1
fi
echo "ok: rotating run matches unbounded output ($segs live segments)"

# Crash mid-run (epoch 5 straddles the rotation at the epoch-4
# snapshot), resume, and require the store byte-identical.
for phase in pre_auction post_settle; do
  store="$workdir/seg-crash-$phase"
  status=0
  "$run" --journal "$store" --segment-bytes "$budget" --crash "5:$phase" \
    > /dev/null 2>&1 || status=$?
  if [ "$status" -ne 10 ]; then
    echo "FAIL(seg-$phase): expected crash exit code 10, got $status" >&2
    exit 1
  fi
  "$run" --resume "$store" > "$workdir/seg-resumed-$phase.txt" 2>/dev/null
  if ! diff -u "$workdir/uninterrupted.txt" "$workdir/seg-resumed-$phase.txt"; then
    echo "FAIL(seg-$phase): resumed output differs" >&2
    exit 1
  fi
  diff_stores "$workdir/seg-ref" "$store" "seg-$phase"
  echo "ok: segmented crash at 5:$phase resumed byte-identical (store too)"
done

# A power cut that tears the manifest rename mid-rotation: the orphan
# segment is discarded on resume and the rotation is redone, landing on
# the same bytes.  Epoch 4 post_settle is right after the
# snapshot-triggered rotation.
store="$workdir/seg-torn-rename"
status=0
"$run" --journal "$store" --segment-bytes "$budget" \
  --disk-fault "4:post_settle:torn_rename" > /dev/null 2>&1 || status=$?
if [ "$status" -ne 10 ]; then
  echo "FAIL(torn-rename): expected crash exit code 10, got $status" >&2
  exit 1
fi
"$run" --resume "$store" > "$workdir/seg-resumed-torn.txt" 2>/dev/null
if ! diff -u "$workdir/uninterrupted.txt" "$workdir/seg-resumed-torn.txt"; then
  echo "FAIL(torn-rename): resumed output differs" >&2
  exit 1
fi
diff_stores "$workdir/seg-ref" "$store" "torn-rename"
echo "ok: torn manifest rename mid-rotation resumed byte-identical"

# A corrupt-byte power cut, then scrub, then resume.  The scrub report
# is machine-readable JSON on stdout; exit 0 means the store resumes.
store="$workdir/seg-corrupt"
status=0
"$run" --journal "$store" --segment-bytes "$budget" \
  --disk-fault "6:pre_settle:corrupt_byte:99" > /dev/null 2>&1 || status=$?
if [ "$status" -ne 10 ]; then
  echo "FAIL(corrupt): expected crash exit code 10, got $status" >&2
  exit 1
fi
"$cli" scrub --dry-run "$store" > "$workdir/scrub-dry.json"
grep -q '"mode":"segmented"' "$workdir/scrub-dry.json" || {
  echo "FAIL(corrupt): scrub report not segmented JSON" >&2; exit 1; }
"$cli" scrub "$store" > "$workdir/scrub.json"
"$run" --resume "$store" > "$workdir/seg-resumed-corrupt.txt" 2>/dev/null
if ! diff -u "$workdir/uninterrupted.txt" "$workdir/seg-resumed-corrupt.txt"; then
  echo "FAIL(corrupt): resumed output differs after scrub" >&2
  exit 1
fi
echo "ok: corrupt-byte power cut scrubbed and resumed identical"

echo "kill-and-resume smoke: all checks passed"
