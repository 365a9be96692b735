#!/usr/bin/env bash
# Worker-pool scaling guard (DESIGN.md §5h).
#
# Reads a BENCH_engine.json freshly written by `hotspots profile
# <preset> --scaling 1,2 --bench-json <file>` and asserts the
# persistent sharded executor is not losing throughput to its own
# machinery: on a machine with at least 2 hardware cores, the
# 2-thread point of the scaling curve must reach at least 0.95x the
# serial throughput. Single-core runners (where two workers just
# timeslice one core and the ratio is scheduler noise) log a skip
# instead of failing.
#
# Usage:
#   scripts/check_thread_scaling.sh [BENCH_engine.json]
set -euo pipefail
cd "$(dirname "$0")/.."

bench_json=${1:-BENCH_engine.json}
floor=0.95

if [ ! -f "$bench_json" ]; then
    echo "error: $bench_json not found (run: hotspots profile bench-slammer --scaling 1,2 --bench-json $bench_json)" >&2
    exit 1
fi

cores=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)
if [ "$cores" -lt 2 ]; then
    echo "skip: only $cores hardware core(s); 2-thread vs serial ratio is scheduler noise on this runner"
    exit 0
fi

python3 - "$bench_json" "$floor" <<'PY'
import json, sys

summary = json.load(open(sys.argv[1]))
floor = float(sys.argv[2])

serial = summary.get("serial_probes_per_sec")
if not serial:
    sys.exit("FAIL: no serial_probes_per_sec in benchmark summary")

two = next(
    (p for p in summary.get("scaling", []) if p.get("threads") == 2),
    None,
)
if two is None:
    sys.exit("FAIL: scaling curve has no 2-thread point "
             "(rerun hotspots profile with --scaling 1,2)")

ratio = two["probes_per_sec"] / serial
print(f"serial: {serial:,.0f} probes/s, 2-thread: {two['probes_per_sec']:,.0f} "
      f"probes/s ({ratio:.3f}x, floor {floor}x)")
if ratio < floor:
    sys.exit(f"FAIL: 2-thread throughput is {ratio:.3f}x serial, "
             f"below the {floor}x floor — the worker pool is losing "
             f"more than it shards")
print("ok: 2-thread point clears the floor")
PY
