package experiment

import (
	"reflect"
	"testing"

	"lira/internal/shedding"
)

// stripWallClock zeroes the only non-deterministic Result field so two
// runs can be compared byte-for-byte.
func stripWallClock(r *Result) *Result {
	c := *r
	c.ConfigElapsed = 0
	return &c
}

// TestPolicyPathMatchesLegacyStrategy is the refactor's differential
// suite: for every legacy strategy, a run configured by registry policy
// name must be byte-identical (modulo wall-clock) to one configured by
// the Strategy enum — across seeds, with mid-run re-adaptation
// exercised.
func TestPolicyPathMatchesLegacyStrategy(t *testing.T) {
	if testing.Short() {
		t.Skip("full-run differential; skipped in -short")
	}
	env := tinyEnv(t)
	base := DefaultRunConfig()
	base.L = 22
	base.WarmupTicks = 40
	base.DurationTicks = 90
	base.EvalEvery = 30
	base.ReAdaptEvery = 45
	for _, kind := range shedding.Kinds() {
		name, ok := shedding.PolicyNameForKind(kind)
		if !ok {
			t.Fatalf("kind %v has no registry policy", kind)
		}
		for _, seed := range []uint64{3, 7, 1009} {
			legacy := base
			legacy.Strategy = kind
			legacy.Seed = seed
			lres, err := Run(env, legacy)
			if err != nil {
				t.Fatalf("%v seed=%d legacy: %v", kind, seed, err)
			}
			byName := legacy
			byName.Policy = name
			pres, err := Run(env, byName)
			if err != nil {
				t.Fatalf("%v seed=%d policy: %v", kind, seed, err)
			}
			if !reflect.DeepEqual(stripWallClock(lres), stripWallClock(pres)) {
				t.Errorf("%v seed=%d: policy %q diverged from legacy strategy\nlegacy: %+v\npolicy: %+v",
					kind, seed, name, stripWallClock(lres), stripWallClock(pres))
			}
		}
	}
}

// TestWorkloadRunDeterminism pins scenario-driven runs: same config →
// byte-identical Result, and the Result is labeled with the workload and
// policy that produced it.
func TestWorkloadRunDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full-run differential; skipped in -short")
	}
	env := tinyEnv(t)
	cfg := DefaultRunConfig()
	cfg.L = 22
	cfg.WarmupTicks = 20
	cfg.DurationTicks = 60
	cfg.EvalEvery = 20
	cfg.Policy = "hysteresis"
	cfg.Workload = "flash-crowd"
	cfg.ReAdaptEvery = 30
	a, err := Run(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripWallClock(a), stripWallClock(b)) {
		t.Error("workload-driven run is not deterministic")
	}
	if a.Workload != "flash-crowd" || a.Policy != "hysteresis" {
		t.Errorf("result labels: workload=%q policy=%q", a.Workload, a.Policy)
	}
	if a.Strategy != -1 {
		t.Errorf("post-paper policy should carry Strategy -1, got %v", a.Strategy)
	}
	if a.ReferenceUpdates == 0 || a.AdmittedUpdates == 0 {
		t.Error("scenario traffic produced no updates")
	}
}
