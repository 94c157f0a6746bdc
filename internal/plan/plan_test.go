package plan

import (
	"bytes"
	"strings"
	"testing"

	"lira/internal/admission"
	"lira/internal/geo"
	"lira/internal/workload"
)

func testSpace() geo.Rect {
	return geo.Rect{MinX: 0, MinY: 0, MaxX: 6000, MaxY: 6000}
}

// TestSimulateDeterministic is the catalog-wide byte-determinism check:
// for every scenario, three seeds, and two drain capacities, two
// simulations produce identical telemetry journals (JSONL bytes) and
// identical outcomes, query results included (ResultHash).
func TestSimulateDeterministic(t *testing.T) {
	for _, scen := range workload.CatalogNames() {
		scen := scen
		t.Run(scen, func(t *testing.T) {
			for _, seed := range []uint64{1, 42, 31337} {
				for _, capacity := range []float64{1, 2} {
					run := func() (*Outcome, []byte) {
						var journal bytes.Buffer
						o, err := Simulate(SimConfig{
							Scenario:    scen,
							Space:       testSpace(),
							Nodes:       200,
							Rate:        20,
							Seed:        seed,
							Capacity:    capacity,
							ZClamp:      1,
							Policy:      "lira",
							JournalSink: &journal,
						})
						if err != nil {
							t.Fatalf("seed %d capacity=%g: %v", seed, capacity, err)
						}
						return o, journal.Bytes()
					}
					o1, j1 := run()
					o2, j2 := run()
					if *o1 != *o2 {
						t.Fatalf("seed %d capacity=%g: outcomes differ:\n%+v\n%+v", seed, capacity, o1, o2)
					}
					if !bytes.Equal(j1, j2) {
						t.Fatalf("seed %d capacity=%g: telemetry journals differ (%d vs %d bytes)",
							seed, capacity, len(j1), len(j2))
					}
					if len(j1) == 0 {
						t.Fatalf("seed %d capacity=%g: empty journal — determinism check is vacuous", seed, capacity)
					}
				}
			}
		})
	}
}

// TestSimulateValidation: bad cells are rejected with errors, not panics.
func TestSimulateValidation(t *testing.T) {
	base := SimConfig{
		Scenario: "blackout", Space: testSpace(), Nodes: 50, Rate: 5,
		Capacity: 1, ZClamp: 1, Policy: "lira",
	}
	for name, mutate := range map[string]func(*SimConfig){
		"zero capacity":  func(c *SimConfig) { c.Capacity = 0 },
		"bad zclamp":     func(c *SimConfig) { c.ZClamp = 1.5 },
		"zero rate":      func(c *SimConfig) { c.Rate = 0 },
		"unknown policy": func(c *SimConfig) { c.Policy = "nope" },
		"unknown scen":   func(c *SimConfig) { c.Scenario = "nope" },
	} {
		cfg := base
		mutate(&cfg)
		if _, err := Simulate(cfg); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

func testPlanConfig() Config {
	return Config{
		Nodes:      300,
		Rate:       30,
		Seed:       7,
		Capacities: []float64{1, 2},
		ZClamps:    []float64{1.0, 0.5},
		Policies:   []string{"lira"},
		Scenarios:  []string{"blackout", "flash-crowd", "query-churn", "rush-hour-closure"},
		Objective:  SLO{P99LatencyMS: 5000, MaxInaccuracyM: 12, MaxRung: admission.Shed},
	}
}

// TestPlanRecommendationMeetsSLO: the planner finds a feasible combo on a
// small grid over four scenarios, its embedded replay verification holds,
// and an independent re-simulation of the recommendation meets the SLO on
// every scenario — the acceptance criterion, executed.
func TestPlanRecommendationMeetsSLO(t *testing.T) {
	cfg := testPlanConfig()
	rep, err := Plan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Feasible || rep.Recommended == nil {
		t.Fatal("no feasible plan found on the test grid")
	}
	if !rep.Verified {
		t.Fatal("embedded replay verification failed")
	}
	infeasible := 0
	for _, c := range rep.Combos {
		if !c.Feasible {
			infeasible++
		}
	}
	if infeasible == 0 {
		t.Error("every combo met the SLO — the grid exerts no planning tension")
	}
	rec := rep.Recommended
	for i, scen := range cfg.Scenarios {
		o, err := Simulate(SimConfig{
			Scenario: scen,
			Space:    geo.Rect{MaxX: 6000, MaxY: 6000},
			Nodes:    cfg.Nodes,
			Rate:     cfg.Rate,
			Seed:     cfg.Seed,
			Capacity: rec.Capacity,
			ZClamp:   rec.ZClamp,
			Policy:   rec.Policy,
			L:        13,
		})
		if err != nil {
			t.Fatalf("re-simulate %s: %v", scen, err)
		}
		if !o.MeetsSLO(cfg.Objective) {
			t.Errorf("%s: recommendation misses the SLO on re-simulation: p99=%.0f inacc=%.1f rung=%s",
				scen, o.P99LatencyMS, o.MeanInaccuracyM, o.MaxRung)
		}
		if *o != *rec.Outcomes[i] {
			t.Errorf("%s: re-simulated outcome differs from the planned one", scen)
		}
	}
}

// TestPlanArtifactDeterministic: two full planning runs with equal config
// marshal to byte-identical artifacts — the BENCH_PR9 contract.
func TestPlanArtifactDeterministic(t *testing.T) {
	cfg := testPlanConfig()
	cfg.Scenarios = []string{"blackout", "query-churn"} // keep the double run cheap
	run := func() []byte {
		rep, err := Plan(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep.Command = "liraplan -test"
		data, err := rep.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatal("equal configs produced different artifacts")
	}
	if a[len(a)-1] != '\n' {
		t.Error("artifact missing trailing newline")
	}
	for _, field := range []string{
		`"command"`, `"nodes"`, `"slo"`, `"scenarios"`, `"combos"`,
		`"feasible"`, `"recommended"`, `"verified"`, `"p99_latency_ms"`,
		`"max_inaccuracy_m"`, `"max_rung"`, `"result_hash"`,
	} {
		if !bytes.Contains(a, []byte(field)) {
			t.Errorf("artifact schema is missing %s", field)
		}
	}
}

// TestReportTable: the human-readable plan renders the recommendation and
// one row per combo.
func TestReportTable(t *testing.T) {
	cfg := testPlanConfig()
	cfg.Scenarios = []string{"blackout"}
	rep, err := Plan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tbl := rep.Table()
	if !strings.Contains(tbl, "recommended") {
		t.Errorf("table missing recommendation marker:\n%s", tbl)
	}
	for _, combo := range rep.Combos {
		if !strings.Contains(tbl, combo.Policy) {
			t.Errorf("table missing policy %s", combo.Policy)
		}
	}
	if !strings.Contains(tbl, "blackout") {
		t.Errorf("table missing per-scenario breakdown:\n%s", tbl)
	}
}

// TestRungFromName round-trips every ladder rung and rejects junk.
func TestRungFromName(t *testing.T) {
	for st := admission.Healthy; st <= admission.Critical; st++ {
		got, err := RungFromName(st.String())
		if err != nil || got != st {
			t.Errorf("RungFromName(%q) = %v, %v", st.String(), got, err)
		}
	}
	if _, err := RungFromName("meltdown"); err == nil {
		t.Error("unknown rung accepted")
	}
}
