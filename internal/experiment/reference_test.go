package experiment

import (
	"fmt"
	"reflect"
	"testing"

	"lira/internal/controlplane"
	"lira/internal/roadnet"
	"lira/internal/telemetry"
	"lira/internal/workload"
)

// runConfigFields classifies every RunConfig field: true for an input of
// the Δ⊢ reference (it must be part of referenceKey), false for a
// candidate-only field. mutate sets the field to a value that still
// differs from the base config's after resolve.
var runConfigFields = map[string]struct {
	reference bool
	mutate    func(*RunConfig)
}{
	"Strategy":        {false, func(c *RunConfig) { c.Strategy++ }},
	"Policy":          {false, func(c *RunConfig) { c.Policy = "single-delta" }},
	"Workload":        {true, func(c *RunConfig) { c.Workload = "flash-crowd" }},
	"WorkloadRate":    {true, func(c *RunConfig) { c.WorkloadRate = 77 }},
	"Z":               {false, func(c *RunConfig) { c.Z = 0.3 }},
	"L":               {false, func(c *RunConfig) { c.L = 13 }},
	"Alpha":           {false, func(c *RunConfig) { c.Alpha = 32 }},
	"Fairness":        {false, func(c *RunConfig) { c.Fairness = 10 }},
	"UseSpeed":        {false, func(c *RunConfig) { c.UseSpeed = !c.UseSpeed }},
	"QueryCount":      {true, func(c *RunConfig) { c.QueryCount = 17 }},
	"MOverN":          {true, func(c *RunConfig) { c.MOverN = 0.5 }},
	"QuerySide":       {true, func(c *RunConfig) { c.QuerySide = 700 }},
	"QueryDist":       {true, func(c *RunConfig) { c.QueryDist = workload.Inverse }},
	"WarmupTicks":     {true, func(c *RunConfig) { c.WarmupTicks++ }},
	"DurationTicks":   {true, func(c *RunConfig) { c.DurationTicks++ }},
	"EvalEvery":       {true, func(c *RunConfig) { c.EvalEvery++ }},
	"StatSampleEvery": {false, func(c *RunConfig) { c.StatSampleEvery++ }},
	"HandoffEvery":    {false, func(c *RunConfig) { c.HandoffEvery++ }},
	"ReAdaptEvery":    {false, func(c *RunConfig) { c.ReAdaptEvery = 20 }},
	"ProtectQueries":  {false, func(c *RunConfig) { c.ProtectQueries = 0.5 }},
	"Shards":          {false, func(c *RunConfig) { c.Shards = 4 }},
	"StationRadius":   {false, func(c *RunConfig) { c.StationRadius = 900 }},
	"Seed":            {true, func(c *RunConfig) { c.Seed++ }},
	"Telemetry":       {false, func(c *RunConfig) { c.Telemetry = telemetry.NewHub(0) }},
}

// envConfigFields is runConfigFields for EnvConfig.
var envConfigFields = map[string]struct {
	reference bool
	mutate    func(*EnvConfig)
}{
	"Net":           {true, func(c *EnvConfig) { c.Net.Seed++ }},
	"Nodes":         {true, func(c *EnvConfig) { c.Nodes++ }},
	"TraceSeed":     {true, func(c *EnvConfig) { c.TraceSeed++ }},
	"MinDelta":      {true, func(c *EnvConfig) { c.MinDelta++ }},
	"MaxDelta":      {false, func(c *EnvConfig) { c.MaxDelta = 90 }},
	"CalibSegments": {false, func(c *EnvConfig) { c.CalibSegments-- }},
	"CalibTicks":    {false, func(c *EnvConfig) { c.CalibTicks++ }},
	"CalibNodes":    {false, func(c *EnvConfig) { c.CalibNodes++ }},
	"Segments":      {false, func(c *EnvConfig) { c.Segments-- }},
	"Dt":            {true, func(c *EnvConfig) { c.Dt = 2 }},
}

// checkClassified fails for every field of typ that classified does not
// know, and when the table's size differs from the field count.
func checkClassified(t *testing.T, typ reflect.Type, classified func(string) bool, n int) {
	t.Helper()
	for i := 0; i < typ.NumField(); i++ {
		if name := typ.Field(i).Name; !classified(name) {
			t.Errorf("%s.%s is not classified as reference input or candidate-only; "+
				"add it to the table (and to referenceKey if the reference reads it)", typ.Name(), name)
		}
	}
	if n != typ.NumField() {
		t.Errorf("%s: table classifies %d fields, the struct has %d", typ.Name(), n, typ.NumField())
	}
}

// TestReferenceKeyCoversEveryInput pins the memo key against the config
// structs: every field must be classified, changing a reference input
// must change the key, and changing a candidate-only field must not.
func TestReferenceKeyCoversEveryInput(t *testing.T) {
	checkClassified(t, reflect.TypeOf(RunConfig{}),
		func(n string) bool { _, ok := runConfigFields[n]; return ok }, len(runConfigFields))
	checkClassified(t, reflect.TypeOf(EnvConfig{}),
		func(n string) bool { _, ok := envConfigFields[n]; return ok }, len(envConfigFields))

	netCfg := roadnet.DefaultConfig()
	netCfg.Side = 2000
	netCfg.GridStep = 400
	envCfg := EnvConfig{Net: netCfg, Nodes: 60, CalibNodes: 40, CalibTicks: 40}
	env, err := NewEnv(envCfg)
	if err != nil {
		t.Fatal(err)
	}
	base := DefaultRunConfig()
	base.Workload = "blackout"
	keyOf := func(env *Env, cfg RunConfig) referenceKey {
		cfg.resolve(env.Cfg.Nodes)
		return referenceKeyFor(env, cfg)
	}
	want := keyOf(env, base)
	for name, f := range runConfigFields {
		cfg := base
		f.mutate(&cfg)
		if changed := keyOf(env, cfg) != want; changed != f.reference {
			t.Errorf("RunConfig.%s: key changed = %v, want %v", name, changed, f.reference)
		}
	}
	for name, f := range envConfigFields {
		cfg := envCfg
		f.mutate(&cfg)
		mutated, err := NewEnv(cfg)
		if err != nil {
			t.Fatalf("EnvConfig.%s: %v", name, err)
		}
		if cfg.Net == envCfg.Net {
			// Generation is deterministic in its config; share the
			// pointer so only the mutated field can differ.
			mutated.Net = env.Net
		}
		if changed := keyOf(mutated, base) != want; changed != f.reference {
			t.Errorf("EnvConfig.%s: key changed = %v, want %v", name, changed, f.reference)
		}
	}
}

// replayRun is the small run template of the replay tests, with
// mid-run re-adaptation so stateful policies are exercised.
func replayRun() RunConfig {
	cfg := DefaultRunConfig()
	cfg.L = 22
	cfg.WarmupTicks = 30
	cfg.DurationTicks = 70
	cfg.EvalEvery = 20
	cfg.ReAdaptEvery = 40
	return cfg
}

// TestReferenceReplayMatchesFresh runs every registered policy over the
// road trace and a scenario on an Env whose memo is warm — recorded by a
// run with a different policy, z, L, and engine — and checks each Result
// against a run on a fresh Env, serially and on two workers.
func TestReferenceReplayMatchesFresh(t *testing.T) {
	env := tinyEnv(t)
	for _, w := range []string{"", "blackout"} {
		warm := replayRun()
		warm.Workload = w
		warm.Policy = "uniform-grid"
		warm.Z = 0.8
		warm.L = 13
		warm.Shards = 2
		var cfgs []RunConfig
		for _, p := range controlplane.RegisteredNames() {
			c := replayRun()
			c.Workload = w
			c.Policy = p
			c.Z = 0.4
			cfgs = append(cfgs, c)
		}
		fresh := make([]*Result, len(cfgs))
		for i, c := range cfgs {
			res, err := Run(env.Fork(), c)
			if err != nil {
				t.Fatal(err)
			}
			fresh[i] = stripWallClock(res)
		}
		for _, parallel := range []int{1, 2} {
			t.Run(fmt.Sprintf("workload=%q/parallel=%d", w, parallel), func(t *testing.T) {
				warmed := env.Fork()
				if _, err := Run(warmed, warm); err != nil {
					t.Fatal(err)
				}
				recorded := warmed.ref
				got, err := runGrid(warmed, parallel, cfgs)
				if err != nil {
					t.Fatal(err)
				}
				if parallel == 1 && warmed.ref != recorded {
					t.Error("a serial run missed the warm memo")
				}
				for i := range got {
					if g := stripWallClock(got[i]); !reflect.DeepEqual(g, fresh[i]) {
						t.Errorf("%s: replayed run diverged from fresh\nreplay: %+v\nfresh:  %+v",
							cfgs[i].Policy, g, fresh[i])
					}
				}
			})
		}
	}
}

// TestReferenceReplayTelemetry checks that a replayed run publishes the
// same series as a fresh one, sim_reference_updates included: the replay
// must report the reference's cumulative count at every evaluation, not
// only at the end.
func TestReferenceReplayTelemetry(t *testing.T) {
	env := tinyEnv(t)
	run := func(env *Env) map[string][]telemetry.Point {
		cfg := replayRun()
		cfg.Telemetry = telemetry.NewHub(0)
		if _, err := Run(env, cfg); err != nil {
			t.Fatal(err)
		}
		return cfg.Telemetry.Registry.Snapshot().Series
	}
	fresh := run(env)
	recorded := env.ref
	replayed := run(env)
	if recorded == nil || env.ref != recorded {
		t.Fatal("the second run did not replay the first run's reference")
	}
	if len(fresh["sim_reference_updates"]) == 0 {
		t.Fatal("no sim_reference_updates points")
	}
	if !reflect.DeepEqual(fresh, replayed) {
		t.Errorf("replayed series differ from fresh\nfresh:    %v\nreplayed: %v", fresh, replayed)
	}
}
