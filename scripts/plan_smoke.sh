#!/bin/sh
# Capacity-planner smoke: run liraplan over a tiny grid (small fleet, two
# drain capacities, two clamps, one policy, two scenarios) and assert the
# planner's contract — a feasible plan is found, the embedded replay
# verification passed, the JSON schema is stable, and a second identical
# invocation emits a byte-identical artifact. This gates the harness;
# real plans come from `make bench-report-plan`.
set -eu

cd "$(dirname "$0")/.."

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT INT TERM

go build -o "$TMP/liraplan" ./cmd/liraplan

run_plan() {
	# cd so argv (recorded in the artifact's "command" field) is identical
	# across runs — the byte-identity check depends on it.
	(cd "$1" && "$TMP/liraplan" -q -nodes 200 -rate 20 -seed 3 \
		-capacity 1,2 -zclamps 1,0.5 -policies lira \
		-scenarios blackout,query-churn \
		-slo-p99ms 5000 -slo-inacc 12 -slo-rung shed \
		-json plan.json >plan.txt 2>/dev/null)
}

mkdir -p "$TMP/a" "$TMP/b"
run_plan "$TMP/a"
OUT="$TMP/a/plan.json"

for field in '"command"' '"nodes"' '"rate"' '"seed"' \
	'"slo"' '"p99_latency_ms"' '"max_inaccuracy_m"' '"max_rung"' \
	'"scenarios"' '"grid_capacity"' '"grid_z_clamps"' '"grid_policies"' \
	'"combos"' '"outcomes"' '"z_clamp"' '"policy"' '"mean_inaccuracy_m"' \
	'"result_hash"' '"feasible"' '"recommended"' '"verified"'; do
	grep -q "$field" "$OUT" || {
		echo "plan artifact missing field $field" >&2
		cat "$OUT" >&2
		exit 1
	}
done

# The tiny grid must produce a feasible, replay-verified recommendation.
grep -q '"feasible": true' "$OUT" || {
	echo "planner found no feasible configuration on the smoke grid" >&2
	cat "$OUT" >&2
	exit 1
}
grep -q '"verified": true' "$OUT" || {
	echo "planner replay verification failed" >&2
	cat "$OUT" >&2
	exit 1
}
grep -q 'recommended' "$TMP/a/plan.txt" || {
	echo "plan table is missing the recommendation line" >&2
	cat "$TMP/a/plan.txt" >&2
	exit 1
}

# Same invocation, different directory: the artifact must be
# byte-identical — the planner is a pure function of (seed, flags).
run_plan "$TMP/b"
cmp -s "$OUT" "$TMP/b/plan.json" || {
	echo "identical liraplan invocations produced different artifacts" >&2
	exit 1
}

echo "plan smoke: OK (feasible, verified, schema complete, byte-deterministic)"
