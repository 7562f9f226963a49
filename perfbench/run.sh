#!/usr/bin/env bash
# Build the benchmark from source and run one workload:
#
#   bash perfbench/run.sh --workload fig2|scale|serve [--seed N] [--seconds S] [--trace 0|1]
#   bash perfbench/run.sh --workload all [...]   # the three, one process each
#
# Run from the repository root.  Build output goes to stderr, so the
# last line on stdout is the workload's JSON result.  Scratch files and
# traced runs' Chrome trace files go to .perfbench/.
set -euo pipefail

# Keep dune's shared cache out of the run: everything stays in the tree.
export DUNE_CACHE=disabled

# A non-login shell may not have the OCaml switch on its PATH yet.
if ! command -v dune > /dev/null; then
  eval "$(opam env --readonly 2> /dev/null)" || true
fi

if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: run from the repository root (no dune-project or lib/ here)" >&2
  exit 2
fi

dune build --root . ./perfbench/ledger.exe 1>&2

exe=./_build/default/perfbench/ledger.exe
args=("$@")
for i in "${!args[@]}"; do
  if [ "${args[$i]}" = "--workload" ] && [ "${args[$((i + 1))]:-}" = "all" ]; then
    status=0
    for w in fig2 scale serve; do
      args[$((i + 1))]=$w
      "$exe" "${args[@]}" || status=$?
    done
    exit "$status"
  fi
done
exec "$exe" "$@"
