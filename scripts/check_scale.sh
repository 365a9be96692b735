#!/usr/bin/env bash
# Internet-scale population check (DESIGN.md §5g).
#
# Drives the million-host presets end-to-end and enforces the two
# scale contracts the population layout makes:
#
#   1. memory  — the population's bytes stay at or below 1/4 of a
#      per-host `Locus` layout for the same hosts, and the whole
#      profiled process's peak resident set (VmHWM, so the runs' own
#      buffers count) stays under a ceiling (HOTSPOTS_SCALE_RSS_MB,
#      default 512 MB);
#   2. scale   — `hotspots run` on each million-host preset completes
#      at 1M+ hosts end-to-end (Zipf synthesis, HostSet lookup,
#      full outbreak loop), and its report times the build (synthesis,
#      store, environment, worm) as the `build` phase, printed beside
#      the host count.
#
# The report-vs-golden diff for these presets rides in
# scripts/check_goldens.sh with every other preset, and the
# dense/compressed bit-identity suite lives in
# crates/scenario/tests/cross_store.rs; CI runs both next to this
# script.
#
# Usage:
#   scripts/check_scale.sh
#
# Set HOTSPOTS to point at the CLI binary (default: release build;
# the profile step needs one built with the telemetry-enabled
# experiments crate, which is its default).
set -euo pipefail
cd "$(dirname "$0")/.."

HOTSPOTS=${HOTSPOTS:-target/release/hotspots}
RSS_CEILING_MB=${HOTSPOTS_SCALE_RSS_MB:-512}
if [ ! -x "$HOTSPOTS" ]; then
    echo "error: $HOTSPOTS not built (cargo build --release -p hotspots-experiments --bin hotspots)" >&2
    exit 1
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

fail=0
for name in bench-million fig2-million; do
    raw="$tmp/$name.raw"
    HOTSPOTS_RUN_REPORT= "$HOTSPOTS" run "$name" --quick --report "$raw" >/dev/null
    read -r hosts build < <(python3 -c '
import json, sys
report = json.load(open(sys.argv[1]))
print(report["population"], report["phases"].get("build", "none"))' "$raw")
    if [ "$hosts" -lt 1000000 ]; then
        echo "FAIL: $name ran only $hosts hosts (expected 1M+)" >&2
        fail=1
    elif [ "$build" = none ]; then
        echo "FAIL: $name's report has no build phase" >&2
        fail=1
    else
        echo "ok: $name completed at $hosts hosts (build ${build}s)"
    fi
done

# Memory contract, measured by the profile harness on a real run.
bench_json="$tmp/bench-million.json"
"$HOTSPOTS" profile bench-million --quick --scaling 1 \
    --out "$tmp" --bench-json "$bench_json" >/dev/null
python3 - "$bench_json" "$RSS_CEILING_MB" <<'PY'
import json, sys

summary = json.load(open(sys.argv[1]))
ceiling_mb = int(sys.argv[2])
mem = summary.get("memory")
if mem is None:
    sys.exit("FAIL: profile harness recorded no memory block")

store, dense = mem["store_bytes"], mem["dense_store_bytes"]
print(f"store: {store} bytes vs {dense} dense-equivalent "
      f"({100 * store / dense:.1f}%)")
if store * 4 > dense:
    sys.exit(f"FAIL: population store ({store} B) exceeds 1/4 of "
             f"dense-equivalent ({dense} B)")

rss = mem.get("resident_bytes")
if rss is None:
    print("warn: no resident_bytes (not a Linux /proc host?); skipping ceiling")
else:
    print(f"peak resident set: {rss / 2**20:.1f} MiB (ceiling {ceiling_mb} MiB)")
    if rss > ceiling_mb * 2**20:
        sys.exit(f"FAIL: peak resident set {rss} B exceeds {ceiling_mb} MiB ceiling")
PY

exit "$fail"
