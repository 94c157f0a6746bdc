#!/bin/sh
# Telemetry smoke: (1) boot lirad with introspection enabled, scrape
# /metrics and /debug/lira, and assert the expected metric families and
# pipeline fields are present; (2) prove telemetry passivity — the same seeded
# simulation produces byte-identical output with the journal on and
# off, and two journaled runs produce byte-identical journals.
set -eu

cd "$(dirname "$0")/.."

TMP="$(mktemp -d)"
LIRAD_PID=""
cleanup() {
	[ -n "$LIRAD_PID" ] && kill "$LIRAD_PID" 2>/dev/null || true
	rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

HTTP=127.0.0.1:17401

echo "-- lirad introspection --"
go build -o "$TMP/lirad" ./cmd/lirad
"$TMP/lirad" -listen 127.0.0.1:17400 -http "$HTTP" -nodes 64 -l 13 \
	-side 2000 -adapt 1s -journal "$TMP/lirad.jsonl" 2>"$TMP/lirad.log" &
LIRAD_PID=$!

# Poll until the introspection endpoint answers (or lirad died).
i=0
until curl -sf "http://$HTTP/metrics" >"$TMP/metrics.txt" 2>/dev/null; do
	i=$((i + 1))
	if [ "$i" -ge 50 ]; then
		echo "lirad introspection endpoint never came up" >&2
		cat "$TMP/lirad.log" >&2
		exit 1
	fi
	kill -0 "$LIRAD_PID" 2>/dev/null || { cat "$TMP/lirad.log" >&2; exit 1; }
	sleep 0.1
done

for family in lira_queue_depth lira_throttle_z lira_statgrid_nodes \
	lira_gridreduce_seconds_bucket lira_set_throttlers_seconds_sum \
	lira_adaptations_total lira_net_disconnects_total \
	lira_frames_read_update_batch_total lira_ingest_batch_size_bucket \
	lira_batch_decode_seconds_bucket lira_gc_pause_seconds; do
	grep -q "^$family" "$TMP/metrics.txt" || {
		echo "metric family $family missing from /metrics" >&2
		cat "$TMP/metrics.txt" >&2
		exit 1
	}
done
echo "   /metrics: all families present"

curl -sf "http://$HTTP/debug/lira?tail=8" >"$TMP/debug.json"
for field in '"z"' '"regions"' '"delta"' '"journal"' '"kind": *"repartition"' '"kind": *"assign"'; do
	grep -q "$field" "$TMP/debug.json" || {
		echo "field $field missing from /debug/lira" >&2
		cat "$TMP/debug.json" >&2
		exit 1
	}
done
echo "   /debug/lira: pipeline state and journal tail present"

kill "$LIRAD_PID"
wait "$LIRAD_PID" 2>/dev/null || true
LIRAD_PID=""
[ -s "$TMP/lirad.jsonl" ] || { echo "lirad journal sink is empty" >&2; exit 1; }

echo "-- telemetry passivity (zero-diff sim) --"
go build -o "$TMP/lirasim" ./cmd/lirasim
SIM="$TMP/lirasim -nodes 300 -side 2000 -l 13 -duration 60 -timing=false"
$SIM >"$TMP/out_plain.txt" 2>/dev/null
$SIM -journal "$TMP/j1.jsonl" -series "$TMP/s1.txt" >"$TMP/out_obs.txt" 2>/dev/null
cmp "$TMP/out_plain.txt" "$TMP/out_obs.txt" || {
	echo "simulation output differs with telemetry attached" >&2
	exit 1
}
$SIM -journal "$TMP/j2.jsonl" >"$TMP/out_obs2.txt" 2>/dev/null
cmp "$TMP/j1.jsonl" "$TMP/j2.jsonl" || {
	echo "decision journal not reproducible across identically seeded runs" >&2
	exit 1
}
[ -s "$TMP/j1.jsonl" ] || { echo "simulation journal is empty" >&2; exit 1; }
echo "   stdout identical with/without telemetry; journals byte-identical"

echo "obs smoke: OK"
