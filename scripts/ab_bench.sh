#!/usr/bin/env bash
# Alternating A/B run of the benchmark of record: this checkout against
# another revision.
#
# Builds <rev> in a git worktree under .bench_ab/, then runs the
# BENCHMARK.json command on both trees in 10 pairs per workload, at
# BENCHMARK.json's run_seconds, alternating which tree runs first. For
# every workload and end-to-end metric it prints each tree's median and
# interquartile spread (q3 - q1), the change of the medians, and the
# share of pairs this checkout wins. The worktree is
# removed on exit. Only benchmark/ is run; nothing in it is edited.
#
# Usage:
#   scripts/ab_bench.sh <rev> [--workload NAME]...
#
#   --workload NAME  a workload to run (repeatable; default: all of
#                    BENCHMARK.json's workloads)
#
# This checkout builds into .bench_build/, as the benchmark does when run
# by hand; the base revision into .bench_ab/build/, which outlives the
# worktree so the next A/B rebuilds only what changed. Every run's
# metrics are kept in .bench_ab/runs.jsonl until the next run.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    sed -n '2,/^set -euo/p' "$0" | sed '$d; s/^# \{0,1\}//'
    exit 2
}

[ $# -ge 1 ] || usage
rev=$1
shift
pairs=10
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
workloads=()
while [ $# -gt 0 ]; do
    case $1 in
        --workload) workloads+=("${2:?--workload needs a value}"); shift 2 ;;
        *) usage ;;
    esac
done
if [ ${#workloads[@]} -eq 0 ]; then
    mapfile -t workloads < <(python3 -c '
import json
for w in json.load(open("BENCHMARK.json"))["workloads"]:
    print(w["name"])')
fi
mapfile -t command < <(python3 -c '
import json
for arg in json.load(open("BENCHMARK.json"))["command"]:
    print(arg)')

here=$(pwd)
base=$here/.bench_ab/base
results=$here/.bench_ab/runs.jsonl
target_dir() {
    if [ "$1" = "$here" ]; then echo "$here/.bench_build"; else echo "$here/.bench_ab/build"; fi
}
cleanup() {
    git worktree remove --force "$base" 2>/dev/null || rm -rf "$base"
    git worktree prune
}
trap cleanup EXIT
mkdir -p .bench_ab
rm -f "$results"
git worktree remove --force "$base" 2>/dev/null || true
git worktree prune
git worktree add --quiet --detach "$base" "$rev"

for tree in "$here" "$base"; do
    echo "building the benchmark in $tree" >&2
    (cd "$tree" && CARGO_TARGET_DIR="$(target_dir "$tree")" \
        cargo build --release --quiet --offline --manifest-path benchmark/Cargo.toml)
done

# run <label> <tree> <workload> <pair>: one benchmark run, its summary
# line appended to the results file.
run() {
    local out
    out=$(cd "$2" && CARGO_TARGET_DIR="$(target_dir "$2")" \
        "${command[@]}" --workload "$3" --seconds "$seconds" 2>/dev/null | tail -1)
    if [ -z "$out" ]; then
        echo "error: $3 printed no result in $2" >&2
        exit 1
    fi
    python3 -c '
import json, sys
label, workload, pair, line = sys.argv[1:]
print(json.dumps({"tree": label, "workload": workload, "pair": int(pair),
                  "result": json.loads(line)}))' "$1" "$3" "$4" "$out" >>"$results"
}

for workload in "${workloads[@]}"; do
    for ((i = 0; i < pairs; i++)); do
        echo "$workload: pair $((i + 1))/$pairs" >&2
        if ((i % 2 == 0)); then
            run head "$here" "$workload" "$i"
            run base "$base" "$workload" "$i"
        else
            run base "$base" "$workload" "$i"
            run head "$here" "$workload" "$i"
        fi
    done
done

python3 - "$results" "$rev" <<'PY'
import json
import statistics
import sys

path, rev = sys.argv[1:]
metrics = json.load(open("BENCHMARK.json"))["end_to_end"]
runs = [json.loads(line) for line in open(path)]
workloads = list(dict.fromkeys(r["workload"] for r in runs))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


print(f"A/B: this checkout (head) vs {rev} (base)")
for workload in workloads:
    rows = [r for r in runs if r["workload"] == workload]
    failed = {tree: sum(r["result"]["failed"] for r in rows if r["tree"] == tree)
              for tree in ("head", "base")}
    incorrect = sum(not r["result"]["correct"] for r in rows)
    pairs = sorted({r["pair"] for r in rows})
    print(f"\n{workload}: {len(pairs)} pairs, failed operations head {failed['head']} "
          f"base {failed['base']}, incorrect runs {incorrect}")
    print(f"  {'metric':<16}{'head median':>14}{'head IQR':>12}{'base median':>14}"
          f"{'base IQR':>12}{'change':>9}{'head wins':>11}")
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        value = {}
        for r in rows:
            m = r["result"]["metrics"].get(name)
            if m is not None:
                value[(r["tree"], r["pair"])] = m["value"]
        head = [value[("head", p)] for p in pairs if ("head", p) in value]
        base = [value[("base", p)] for p in pairs if ("base", p) in value]
        if not head or not base:
            continue
        hq1, hmed, hq3 = quartiles(head)
        bq1, bmed, bq3 = quartiles(base)
        both = [p for p in pairs if ("head", p) in value and ("base", p) in value]
        wins = sum((value[("head", p)] < value[("base", p)]) == lower
                   and value[("head", p)] != value[("base", p)] for p in both)
        change = (hmed - bmed) / bmed * 100 if bmed else float("nan")
        print(f"  {name:<16}{hmed:>14.4g}{hq3 - hq1:>12.3g}{bmed:>14.4g}{bq3 - bq1:>12.3g}"
              f"{change:>+8.1f}%{wins:>6}/{len(both)}")
PY
