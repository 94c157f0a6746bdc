# Developer entry points. `make check` is the gate PRs must pass; it is
# also available as scripts/check.sh for environments without make.

GO ?= go

.PHONY: check vet fmt-gate wiring-guard doc-gate build test race fuzz-smoke chaos bench-smoke policy-smoke obs-smoke obs-demo allocs-gate saturate-smoke admission-smoke spans-smoke plan-smoke measured-smoke bench-report bench-report-obs bench-report-policy bench-report-saturate bench-report-admission bench-report-spans bench-report-plan bench-report-measured clean

check: vet fmt-gate wiring-guard doc-gate build race allocs-gate fuzz-smoke chaos bench-smoke policy-smoke saturate-smoke obs-smoke admission-smoke spans-smoke plan-smoke measured-smoke

vet:
	$(GO) vet ./...

fmt-gate:
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "files not gofmt-formatted:"; echo "$$unformatted"; exit 1; \
	fi; \
	echo "gofmt clean"

# The GRIDREDUCE -> GREEDYINCREMENT wiring must exist exactly once, in
# internal/controlplane (plus partition's internal helper and the facade
# passthrough). See scripts/check.sh for the same guard without make.
wiring-guard:
	@bad="$$(grep -rn --include='*.go' -e 'throttler\.SetThrottlers(' -e 'partition\.GridReduce(' . \
		| grep -v '_test\.go' \
		| grep -v '^\./internal/controlplane/' \
		| grep -v '^\./internal/partition/partition\.go' \
		| grep -v '^\./lira\.go' || true)"; \
	if [ -n "$$bad" ]; then \
		echo "adaptation pipeline wired outside internal/controlplane:"; echo "$$bad"; exit 1; \
	fi; \
	echo "wiring single-homed"

# Every package must carry a doc comment (// Package … or // Command …);
# godoc and the README package map depend on them.
doc-gate:
	@missing="$$($(GO) list -f '{{if not .Doc}}{{.ImportPath}}{{end}}' ./...)"; \
	if [ -n "$$missing" ]; then \
		echo "packages missing a doc comment:"; echo "$$missing"; exit 1; \
	fi; \
	echo "all packages documented"

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short adversarial pass over every wire decoder and the frame reader:
# malformed input must error, never panic or over-allocate. `go test`
# accepts a single -fuzz target at a time, hence the loop.
FUZZ_TARGETS := FuzzDecodeHello FuzzDecodeUpdate FuzzDecodeAssignment \
	FuzzDecodeQuery FuzzDecodeResult FuzzDecodePing FuzzDecodeUpdateBatch \
	FuzzReadFrame

fuzz-smoke:
	@for t in $(FUZZ_TARGETS); do \
		echo "fuzz $$t"; \
		$(GO) test -run '^$$' -fuzz "^$$t$$" -fuzztime 5s ./internal/wire || exit 1; \
	done

# Race-enabled fault-injection suite: deterministic chaos (reconnect,
# reconvergence, goroutine hygiene) plus graceful-degradation checks.
chaos:
	$(GO) test -race -count 1 -run 'Chaos|LossDegrades|Reconnect|ClientErr|Overflow|DrainPerTick' ./internal/netsvc

# One iteration of the Figure 4 benchmark: catches bit-rot in the bench
# harness without paying for a full measurement run.
bench-smoke:
	$(GO) test -run '^$$' -bench Fig04 -benchtime 1x .

# One-seed run of the §4-style measured policy comparison: every registry
# policy vs LIRA on measured E^C/E^P at equal throttle fraction, over the
# road-network trace and a named scenario.
policy-smoke:
	$(GO) run ./cmd/lirabench -policy -nodes 600 -duration 60

# Telemetry smoke: lirad introspection endpoints plus the zero-diff
# passivity check (same seed, same output, journal on or off).
obs-smoke:
	sh scripts/obs_smoke.sh

# AllocsPerRun gates: the ingest hot path's memory model (0 allocations
# for ingest/drain/apply, ≤1 per Evaluate, zero-alloc batch decode).
allocs-gate:
	sh scripts/allocs_gate.sh

# Tiny saturation ramp: proves -saturate runs, writes schema-complete
# JSON, and ramps the offered rate monotonically. Not a measurement.
saturate-smoke:
	sh scripts/saturate_smoke.sh

# Degradation-ladder smoke: lirad with -admission, a liranode flood past
# the shed threshold, and the full escalate → pre-shed → recover round
# trip asserted through /metrics and /debug/lira.
admission-smoke:
	sh scripts/admission_smoke.sh

# Span-tracing smoke: lirad with -spans and armed SLOs, the Perfetto
# trace endpoint, the record-conservation ledger (zero violations), and
# lirasim's byte-identical trace export under a fixed seed.
spans-smoke:
	sh scripts/spans_smoke.sh

# Capacity-planner smoke: liraplan over a tiny grid — a feasible,
# replay-verified plan with a stable schema and a byte-identical rerun.
plan-smoke:
	sh scripts/plan_smoke.sh

# Measured-evaluation smoke: the shrunk measured policy comparison plus
# liraplan -measured — schema-complete artifacts, lira no worse than the
# region-oblivious baselines on measured E^C, byte-identical reruns.
measured-smoke:
	sh scripts/measured_smoke.sh

# Interactive observability demo: boots lirad with /metrics and
# /debug/lira (plus pprof) on :17401 and leaves it running — curl away,
# ^C to stop. See README "Observability" for a sample session.
obs-demo:
	$(GO) run ./cmd/lirad -listen 127.0.0.1:17400 -http 127.0.0.1:17401 \
		-pprof -nodes 1000 -l 49 -side 5000 -adapt 5s -eval 2s

# Regenerate the serial-vs-parallel timing artifact.
bench-report:
	$(GO) run ./cmd/lirabench -nodes 1500 -duration 300 -parallel 4 -json BENCH_PR1.json

# Regenerate the telemetry-overhead artifact (Evaluate-latency histogram,
# per-stage breakdown, on/off overhead).
bench-report-obs:
	$(GO) run ./cmd/lirabench -exp fig9 -nodes 1500 -duration 300 -parallel 4 -obs -json BENCH_PR3.json

# Regenerate the measured policy-comparison artifact: every registry
# policy's measured E^C/E^P per (workload, z) — the successor of the
# modeled-objective BENCH_PR5 table.
bench-report-policy: bench-report-measured

bench-report-measured:
	$(GO) run ./cmd/lirabench -policy -policyjson BENCH_PR10.json

# Regenerate the ingest-saturation artifact: offered-rate ramp to the
# knee plus the single-core per-update-vs-batched path comparison.
bench-report-saturate:
	$(GO) run ./cmd/lirabench -saturate -saturatejson BENCH_PR6.json

# Regenerate the degradation-ladder artifact: flash-crowd overload
# timeline (escalation, pre-shed, recovery) plus the healthy-state
# overhead budget check.
bench-report-admission:
	$(GO) run ./cmd/lirabench -admission -admissionjson BENCH_PR7.json

# Regenerate the span-tracing overhead artifact: the same run at four
# arming levels (no hub, hub only, 1-in-8 sampled, fully traced) plus
# the output-identity and export-determinism verdicts.
bench-report-spans:
	$(GO) run ./cmd/lirabench -spansoverhead -spansjson BENCH_PR8.json

# Regenerate the capacity-plan artifact: the default capacity × z × policy grid
# over the full scenario catalog against the default SLO.
bench-report-plan:
	$(GO) run ./cmd/liraplan -q -json BENCH_PR9.json

clean:
	$(GO) clean ./...
