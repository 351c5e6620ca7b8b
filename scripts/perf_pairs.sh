#!/usr/bin/env bash
# A/B pairs for one perfbench workload: the parent revision against the
# working tree, one alternating pair of `python3 perfbench/run.py` runs
# per seed, then per metric the medians, the quartiles and how many pairs
# the change won.
set -euo pipefail

usage() {
  cat <<'EOF'
usage: scripts/perf_pairs.sh PARENT_REV WORKLOAD SEED...

Copies PARENT_REV (git archive) and the working tree (tracked and
untracked, non-ignored files) into two directories under a fresh
temporary directory, then for each SEED runs

  python3 perfbench/run.py --workload WORKLOAD --seed SEED \
    --seconds <run_seconds of BENCHMARK.json> --trace 0

once in each copy, alternating which side runs first. Prints every
pair, then per end-to-end metric: each side's median and quartiles, the
pairs the change won (ties count for neither side), and whether the
change is better in at least 9/10 of the pairs and by more than the
parent's interquartile range; also each run's failed operations. A run
that reports incorrect answers stops the script. Nothing under
perfbench/ or in BENCHMARK.json is touched; the copies are removed on
exit.

WORKLOAD is one of lubm-reform, graph-cyclic, serve-mixed.
EOF
}

if [ "${1:-}" = "--help" ] || [ "${1:-}" = "-h" ]; then
  usage
  exit 0
fi
if [ "$#" -lt 3 ]; then
  usage >&2
  exit 2
fi

parent=$1
workload=$2
shift 2
seeds=("$@")

repo=$(cd "$(dirname "$0")/.." && pwd)
rev=$(git -C "$repo" rev-parse --verify "$parent^{commit}")
seconds=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
  "$repo/BENCHMARK.json")

tmp=$(mktemp -d "${TMPDIR:-/tmp}/perf_pairs.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/parent" "$tmp/change" "$tmp/results"
git -C "$repo" archive "$rev" | tar -x -C "$tmp/parent"
(cd "$repo" && git ls-files -z --cached --others --exclude-standard |
  tar --null -T - -cf -) | tar -x -C "$tmp/change"

echo "# parent $rev, change = working tree of $repo"
echo "# workload $workload, ${seconds}s runs, seeds ${seeds[*]}"

run_side() {
  local side=$1 seed=$2 out="$tmp/results/$1.$2.json"
  echo "# seed $seed: $side" >&2
  (cd "$tmp/$side" &&
    python3 perfbench/run.py --workload "$workload" --seed "$seed" \
      --seconds "$seconds" --trace 0) | tail -n 1 >"$out"
}

k=0
for seed in "${seeds[@]}"; do
  if [ $((k % 2)) -eq 0 ]; then
    run_side parent "$seed"
    run_side change "$seed"
  else
    run_side change "$seed"
    run_side parent "$seed"
  fi
  k=$((k + 1))
done

python3 - "$repo/BENCHMARK.json" "$tmp/results" "${seeds[@]}" <<'EOF'
import json, statistics, sys

bench, results, seeds = sys.argv[1], sys.argv[2], sys.argv[3:]
metrics = json.load(open(bench))["end_to_end"]


def load(side, seed):
    r = json.load(open(f"{results}/{side}.{seed}.json"))
    if not r.get("correct", False):
        sys.exit(f"perf_pairs: {side} seed {seed}: incorrect answers: {r}")
    print(f"# {side} seed {seed}: {r['failed']} of {r['attempted']} operations failed")
    return {k: v["value"] for k, v in r["metrics"].items()}


runs = {s: (load("parent", s), load("change", s)) for s in seeds}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


for m in metrics:
    name, lower = m["name"], m["better"] == "lower"
    pairs = [(runs[s][0].get(name), runs[s][1].get(name)) for s in seeds]
    pairs = [(p, c) for p, c in pairs if p is not None and c is not None]
    if not pairs:
        continue
    ps, cs = [p for p, _ in pairs], [c for _, c in pairs]
    wins = sum(1 for p, c in pairs if (c < p if lower else c > p))
    losses = sum(1 for p, c in pairs if (c > p if lower else c < p))
    pm, cm = statistics.median(ps), statistics.median(cs)
    (p1, p3), (c1, c3) = quartiles(ps), quartiles(cs)
    better = cm < pm if lower else cm > pm
    holds = 10 * wins >= 9 * len(pairs) and better and abs(cm - pm) > p3 - p1
    print(f"{name} ({m['unit']}, {m['better']} is better):")
    print("  pairs  " + "  ".join(f"{p:.4g}->{c:.4g}" for p, c in pairs))
    print(f"  parent median {pm:.4g} (IQR {p1:.4g}-{p3:.4g})"
          f"  change median {cm:.4g} (IQR {c1:.4g}-{c3:.4g})")
    print(f"  change won {wins}/{len(pairs)}, lost {losses};"
          f" gain {'holds' if holds else 'not shown'}"
          " (>= 9/10 pairs and beyond the parent's IQR)")
EOF
