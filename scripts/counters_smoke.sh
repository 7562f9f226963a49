#!/bin/sh
# Exact work-counter gate: a 2-second traced benchmark run of `fig2`
# and of `scale` (seed 42) must fail no operation and repeat, per
# round, the work counters that perfbench/NOTES.md records as exact on
# both workloads (candidate evaluations, pivots, routes, reroutes,
# paths, Dijkstra searches).  The expected values are read from the
# per-layer ledger table in NOTES.md, their one home.  The counters do
# not depend on the machine, so a change that moves one of them does
# different work — a different selection, probe, route or search — not
# merely faster or slower work.
set -eu

cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

for w in fig2 scale; do
  if ! bash perfbench/run.sh --workload "$w" --seed 42 --seconds 2 --trace 1 \
    > "$workdir/$w.out" 2> "$workdir/$w.err"; then
    cat "$workdir/$w.err" "$workdir/$w.out" >&2
    echo "FAIL: $w run exited non-zero" >&2
    exit 1
  fi
  tail -n 1 "$workdir/$w.out" > "$workdir/$w.json"
done

python3 - "$workdir" perfbench/NOTES.md <<'EOF'
import json, sys

workdir, notes_path = sys.argv[1], sys.argv[2]
workloads = ["fig2", "scale"]
counters = [
    "auction.candidate_evals",
    "auction.pivots",
    "mcf.routes",
    "mcf.reroutes",
    "mcf.paths",
    "graph.dijkstra",
]

# The per-layer ledger: a header row naming the workloads, then rows
# whose first cell lists metrics joined by " / " and whose workload
# cells list their values the same way ("543 / 14,920 / 87,740").
lines = open(notes_path).read().splitlines()
start = next(i for i, l in enumerate(lines) if l.startswith("| Layer metric |"))
cells = lambda l: [c.strip() for c in l.strip().strip("|").split("|")]
columns = [c.strip("`") for c in cells(lines[start])[1:]]
recorded = {w: {} for w in columns}
for line in lines[start + 2:]:
    if not line.startswith("|"):
        break
    row = cells(line)
    names = [n.strip().strip("`") for n in row[0].split(" / ")]
    for w, cell in zip(columns, row[1:]):
        values = [v.strip().replace(",", "") for v in cell.split(" / ")]
        if len(values) == len(names):
            recorded[w].update(zip(names, values))

bad = []
for workload in workloads:
    doc = json.load(open(f"{workdir}/{workload}.json"))
    wrong = [f"failed = {doc['failed']}"] if doc["failed"] != 0 else []
    checked = []
    for name in counters:
        want = recorded.get(workload, {}).get(name)
        if want is None:
            wrong.append(f"{name} has no value in {notes_path}")
            continue
        got = doc["metrics"][name]["value"]
        if float(got) != float(want):
            wrong.append(f"{name} = {got}, expected {want}")
        checked.append(f"{name} {want}")
    if wrong:
        bad += [f"{workload}: {w}" for w in wrong]
    else:
        print(f"ok: {workload} failed 0, " + ", ".join(checked))
for line in bad:
    print("FAIL: " + line, file=sys.stderr)
sys.exit(1 if bad else 0)
EOF

echo "counters smoke: all checks passed"
