#!/bin/sh
# Saturation-benchmark smoke: run a tiny ramp (small population, two
# short slices) and assert the artifact's shape — every schema field
# present, one step per rung, offered rates strictly increasing, and a
# positive path-comparison speedup. This is a correctness gate for the
# harness, not a measurement; real numbers come from
# `make bench-report-saturate` on a quiet machine.
set -eu

cd "$(dirname "$0")/.."

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT INT TERM

OUT="$TMP/saturate.json"
go run ./cmd/lirabench -saturate -nodes 200 -satsteps 2 -satbase 50000 \
	-satslice 80ms -saturatejson "$OUT" 2>"$TMP/progress.log"

for field in '"command"' '"nodes"' '"batch_size"' '"slice_ms"' \
	'"num_cpu"' '"gomaxprocs"' '"steps"' '"knee"' '"paths"' \
	'"offered_per_sec"' '"achieved_per_sec"' '"efficiency"' \
	'"p99_evaluate_ms"' '"evals"' '"shed"' '"gc_cycles"' '"gc_pause_ms"' \
	'"heap_alloc_mb"' '"per_update_per_sec"' '"batch_per_sec"' \
	'"speedup"' '"records"'; do
	grep -q "$field" "$OUT" || {
		echo "saturate artifact missing field $field" >&2
		cat "$OUT" >&2
		exit 1
	}
done

# Scope the ramp asserts to the steps array: the knee block repeats one
# step's fields and would otherwise double-count.
sed -n '/"steps"/,/"knee"/p' "$OUT" >"$TMP/steps.json"
steps="$(grep -c '"offered_per_sec"' "$TMP/steps.json")"
if [ "$steps" -ne 2 ]; then
	echo "saturate artifact has $steps ramp steps, want 2" >&2
	cat "$OUT" >&2
	exit 1
fi

# The ramp must offer strictly increasing rates step over step.
grep -o '"offered_per_sec": [0-9.e+]*' "$TMP/steps.json" | awk '{print $2}' |
	awk 'NR > 1 && $1 + 0 <= prev + 0 { exit 1 } { prev = $1 }' || {
	echo "offered rates are not strictly increasing across steps" >&2
	cat "$OUT" >&2
	exit 1
}

# The path comparison must have measured both disciplines.
grep -o '"speedup": [0-9.e+]*' "$OUT" | awk '{ exit ($2 + 0 > 0) ? 0 : 1 }' || {
	echo "path-comparison speedup is not positive" >&2
	cat "$OUT" >&2
	exit 1
}

echo "saturate smoke: OK (schema complete, ramp monotone)"
