#!/bin/sh
# Allocation gate: the ingest hot path's memory model, enforced. Runs the
# testing.AllocsPerRun gates that pin steady-state allocation counts —
# zero for Ingest/IngestShedOldest (scalar, bulk, and columnar), Drain,
# and Apply; at most one per Evaluate — on the engine (cqserver), plus
# the wire layer's zero-alloc batch decode.
set -eu

cd "$(dirname "$0")/.."

echo "-- engine allocation gates (cqserver) --"
go test -count 1 -run 'TestAllocs' ./internal/cqserver

echo "-- wire decode allocation gates --"
go test -count 1 -run 'ZeroAlloc' ./internal/wire

echo "allocs gate: OK"
