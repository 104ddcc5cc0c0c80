#!/bin/sh
# Smoke test of one example: it must exit 0, and every expected line
# must appear verbatim in its stdout.
# Usage: smoke_test.sh <example-binary> [expected-line ...]
EXAMPLE="$1"
[ -n "$EXAMPLE" ] || { echo "usage: $0 <example-binary> [line ...]"; exit 2; }
shift
OUT="$(mktemp)"
trap 'rm -f "$OUT"' EXIT

"$EXAMPLE" > "$OUT" || {
    echo "FAIL: $EXAMPLE exited with status $?"; exit 1; }
for line in "$@"; do
    grep -Fxq -- "$line" "$OUT" || {
        echo "FAIL: $EXAMPLE stdout lacks the line: $line"
        echo "--- stdout:"; cat "$OUT"; exit 1; }
done
