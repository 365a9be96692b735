#!/usr/bin/env bash
# Golden run-report and rendered-output check for every registry preset.
#
# Runs each preset the `hotspots` CLI knows about at --quick scale,
# normalizes the JSONL run report (host-timing fields stripped), and
# diffs it against the checked-in golden under results/golden/. Any
# drift in probe accounting, infections, config echo, or population
# totals fails the check. The preset's rendered stdout, minus its
# trailing run_report line, is pinned as results/golden/<name>.txt, so
# study rows the report does not carry (table2's "CRII IPs seen", for
# one) are pinned too.
#
# Usage:
#   scripts/check_goldens.sh            # compare against goldens
#   scripts/check_goldens.sh --update   # regenerate the goldens
#
# Set HOTSPOTS to point at the CLI binary (default: release build).
set -euo pipefail
cd "$(dirname "$0")/.."

HOTSPOTS=${HOTSPOTS:-target/release/hotspots}
if [ ! -x "$HOTSPOTS" ]; then
    echo "error: $HOTSPOTS not built (cargo build --release -p hotspots-experiments --bin hotspots)" >&2
    exit 1
fi

mode=check
if [ "${1:-}" = "--update" ]; then
    mode=update
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir -p results/golden

normalize() {
    python3 - "$1" "$2" <<'PY'
import json, sys

src, dst = sys.argv[1], sys.argv[2]
VOLATILE = ("wall_seconds", "peak_step_seconds", "phases")
with open(src) as f, open(dst, "w") as out:
    for line in f:
        if not line.strip():
            continue
        report = json.loads(line)
        for key in VOLATILE:
            report.pop(key, None)
        out.write(json.dumps(report) + "\n")
PY
}

fail=0
for name in $("$HOTSPOTS" list | awk '/^  / {print $1}'); do
    raw="$tmp/$name.raw"
    HOTSPOTS_RUN_REPORT= "$HOTSPOTS" run "$name" --quick --report "$raw" >"$tmp/$name.stdout"
    normalize "$raw" "$tmp/$name.jsonl"
    sed '${/^{"kind":"run_report"/d;}' "$tmp/$name.stdout" >"$tmp/$name.txt"
    if [ "$mode" = update ]; then
        cp "$tmp/$name.jsonl" "results/golden/$name.jsonl"
        cp "$tmp/$name.txt" "results/golden/$name.txt"
        echo "updated results/golden/$name.{jsonl,txt}"
        continue
    fi
    ok=1
    for ext in jsonl txt; do
        if ! diff -u "results/golden/$name.$ext" "$tmp/$name.$ext"; then
            echo "MISMATCH: $name.$ext (regenerate with scripts/check_goldens.sh --update if intended)" >&2
            fail=1
            ok=0
        fi
    done
    if [ "$ok" = 1 ]; then
        echo "ok: $name"
    fi
done

exit "$fail"
