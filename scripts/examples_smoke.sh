#!/bin/sh
# Examples smoke check: every program under examples/ builds and runs
# to completion.  Each prints its own story; a non-zero exit from any
# of them fails the check, and its output is shown.
set -eu

cd "$(dirname "$0")/.."

names=$(for f in examples/*.ml; do basename "$f" .ml; done)
# shellcheck disable=SC2046
dune build $(for n in $names; do echo "examples/$n.exe"; done)

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

exe=$(pwd)/_build/default/examples
failed=0
for n in $names; do
  if (cd "$workdir" && "$exe/$n.exe") > "$workdir/$n.txt" 2>&1; then
    echo "ok: examples/$n"
  else
    status=$?
    cat "$workdir/$n.txt" >&2
    echo "FAIL: examples/$n exited $status" >&2
    failed=1
  fi
done
[ "$failed" -eq 0 ] || exit 1
echo "examples smoke: all $(echo "$names" | wc -w | tr -d ' ') examples ran"
