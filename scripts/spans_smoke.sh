#!/bin/sh
# Span-tracing smoke: (1) boot lirad with -spans and the SLO tracker
# armed, scrape /debug/lira/spans and assert a Perfetto-loadable trace
# with pipeline spans, assert the record-conservation ledger and the SLO
# burn gauges on /metrics (the violations counter must read zero), and
# the ledger/slo blocks in /debug/lira; (2) prove the determinism and
# passivity contracts end to end — a lirasim run's stdout is identical
# with tracing on and off, and two identically seeded runs export
# byte-identical traces.
set -eu

cd "$(dirname "$0")/.."

TMP="$(mktemp -d)"
LIRAD_PID=""
cleanup() {
	[ -n "$LIRAD_PID" ] && kill "$LIRAD_PID" 2>/dev/null || true
	rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

HTTP=127.0.0.1:17403

echo "-- lirad span tracing + ledger + SLOs --"
go build -o "$TMP/lirad" ./cmd/lirad
"$TMP/lirad" -listen 127.0.0.1:17402 -http "$HTTP" -nodes 64 -l 13 \
	-side 2000 -adapt 1s -eval 100ms -spans \
	-slo-evalp99 0.05 -slo-inaccuracy 0.5 -slo-rung 1 2>"$TMP/lirad.log" &
LIRAD_PID=$!

# Poll until the introspection endpoint answers (or lirad died).
i=0
until curl -sf "http://$HTTP/metrics" >/dev/null 2>&1; do
	i=$((i + 1))
	if [ "$i" -ge 50 ]; then
		echo "lirad introspection endpoint never came up" >&2
		cat "$TMP/lirad.log" >&2
		exit 1
	fi
	kill -0 "$LIRAD_PID" 2>/dev/null || { cat "$TMP/lirad.log" >&2; exit 1; }
	sleep 0.1
done

# Let a few background ticks run so the tracer has pipeline spans and
# the ledger/SLO gauges have been published at least once.
sleep 1
curl -sf "http://$HTTP/metrics" >"$TMP/metrics.txt"

for family in lira_ledger_offered lira_ledger_applied lira_ledger_queued \
	lira_ledger_balance lira_ledger_violations_total \
	lira_slo_eval_p99_burn_short lira_slo_eval_p99_burn_long \
	lira_slo_inaccuracy_good lira_slo_rung_alerting; do
	grep -q "^$family" "$TMP/metrics.txt" || {
		echo "metric family $family missing from /metrics" >&2
		cat "$TMP/metrics.txt" >&2
		exit 1
	}
done
grep -q '^lira_ledger_violations_total 0$' "$TMP/metrics.txt" || {
	echo "record-conservation ledger reported violations" >&2
	grep '^lira_ledger' "$TMP/metrics.txt" >&2
	exit 1
}
echo "   /metrics: ledger conserved, SLO burn gauges present"

curl -sf "http://$HTTP/debug/lira/spans" >"$TMP/trace.json"
for want in '"traceEvents"' '"ph":"X"' '"name":"tick"' '"cat":"netsvc"' \
	'"name":"drain"' '"name":"adapt"' '"name":"gridreduce"' \
	'"name":"greedyincrement"' '"cat":"controlplane"' '"displayTimeUnit"'; do
	grep -q "$want" "$TMP/trace.json" || {
		echo "span trace missing $want" >&2
		cat "$TMP/trace.json" >&2
		exit 1
	}
done
echo "   /debug/lira/spans: Chrome trace-event JSON with pipeline spans"

curl -sf "http://$HTTP/debug/lira?tail=4" >"$TMP/debug.json"
for field in '"ledger"' '"offered"' '"slo"' '"eval_p99"' '"burn_long"'; do
	grep -q "$field" "$TMP/debug.json" || {
		echo "field $field missing from /debug/lira" >&2
		cat "$TMP/debug.json" >&2
		exit 1
	}
done
echo "   /debug/lira: ledger and slo blocks present"

kill "$LIRAD_PID"
wait "$LIRAD_PID" 2>/dev/null || true
LIRAD_PID=""

echo "-- span determinism + passivity (lirasim) --"
go build -o "$TMP/lirasim" ./cmd/lirasim
SIM="$TMP/lirasim -nodes 300 -side 2000 -l 13 -duration 60 -timing=false"
$SIM >"$TMP/out_plain.txt" 2>/dev/null
$SIM -spans "$TMP/t1.json" >"$TMP/out_traced.txt" 2>/dev/null
cmp "$TMP/out_plain.txt" "$TMP/out_traced.txt" || {
	echo "simulation output differs with span tracing attached" >&2
	exit 1
}
$SIM -spans "$TMP/t2.json" >/dev/null 2>&1
cmp "$TMP/t1.json" "$TMP/t2.json" || {
	echo "span trace not byte-identical across identically seeded runs" >&2
	exit 1
}
grep -q '"traceEvents"' "$TMP/t1.json" || { echo "lirasim trace is empty" >&2; exit 1; }
echo "   stdout identical with/without tracing; traces byte-identical"

echo "spans smoke: OK"
