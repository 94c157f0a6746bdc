package plan

import (
	"fmt"
	"sort"

	"lira/internal/admission"
	"lira/internal/controlplane"
	"lira/internal/geo"
	"lira/internal/workload"
)

// SLO is the operator's service-level objective, one bound per planner
// axis (the internal/slo target kinds).
type SLO struct {
	// P99LatencyMS bounds the 99th-percentile modeled Evaluate latency.
	P99LatencyMS float64 `json:"p99_latency_ms"`
	// MaxInaccuracyM bounds the query-weighted mean shedding imprecision
	// in meters.
	MaxInaccuracyM float64 `json:"max_inaccuracy_m"`
	// MaxRung bounds how far up the admission ladder a run may climb.
	MaxRung admission.State `json:"-"`
	// MaxRungName is MaxRung's string form, for the JSON artifact.
	MaxRungName string `json:"max_rung"`
}

// Config parameterizes one planning run.
type Config struct {
	// Nodes and Rate describe the fleet: population size and baseline
	// aggregate report rate (updates per tick).
	Nodes int
	Rate  float64
	// SpaceSide is the side of the monitored square in meters (0 selects
	// 6000).
	SpaceSide float64
	// Seed drives every scenario and thinning decision.
	Seed uint64
	// L is the shedding-region count (0 selects 13).
	L int
	// Capacities, ZClamps, Policies, Scenarios define the sweep grid.
	// Capacities are drain capacities as multiples of Rate (1 exactly
	// keeps up with the baseline, so the overloads create the planning
	// tension). Empty slices select the defaults: capacity ∈ {1,2,4},
	// z ∈ {1.0,0.7,0.4}, every controlplane policy, every catalog
	// scenario.
	Capacities []float64
	ZClamps    []float64
	Policies   []string
	Scenarios  []string
	// Objective is the SLO candidates are judged against.
	Objective SLO
	// Progress, when non-nil, is called once per completed cell —
	// liraplan points it at stderr.
	Progress func(done, total int, o *Outcome)
}

func (c *Config) fillDefaults() {
	if c.SpaceSide <= 0 {
		c.SpaceSide = 6000
	}
	if c.L <= 0 {
		c.L = 13
	}
	if len(c.Capacities) == 0 {
		c.Capacities = []float64{1, 2, 4}
	}
	if len(c.ZClamps) == 0 {
		c.ZClamps = []float64{1.0, 0.7, 0.4}
	}
	if len(c.Policies) == 0 {
		for _, pol := range controlplane.Policies() {
			c.Policies = append(c.Policies, pol.Name())
		}
	}
	if len(c.Scenarios) == 0 {
		c.Scenarios = workload.CatalogNames()
	}
	c.Objective.MaxRungName = c.Objective.MaxRung.String()
}

// Combo is one candidate configuration with its per-scenario outcomes.
type Combo struct {
	Capacity float64 `json:"capacity"`
	ZClamp   float64 `json:"z_clamp"`
	Policy   string  `json:"policy"`
	Feasible bool    `json:"feasible"`
	// WorstP99MS / WorstInaccuracyM / WorstRung are the combo's worst
	// case across scenarios — what the SLO is checked against.
	WorstP99MS       float64    `json:"worst_p99_ms"`
	WorstInaccuracyM float64    `json:"worst_inaccuracy_m"`
	WorstRung        string     `json:"worst_rung"`
	Outcomes         []*Outcome `json:"outcomes"`
}

// Plan sweeps the grid in cheapest-first order and returns the full
// measured table plus the first (= cheapest) combo feasible on every
// scenario. The order is deliberate and documented (DESIGN.md §5j):
// capacity ascending (hardware is the real cost), then z-clamp descending
// (shed as little as possible), then policy in controlplane registry
// order (simplest computation first). Every cell is still simulated, so
// the artifact carries the complete measured curve per policy per
// scenario, not just the winner.
func Plan(cfg Config) (*Report, error) {
	cfg.fillDefaults()
	if cfg.Nodes <= 0 || cfg.Rate <= 0 {
		return nil, fmt.Errorf("plan: need positive nodes and rate, got %d, %v", cfg.Nodes, cfg.Rate)
	}
	zClamps := append([]float64(nil), cfg.ZClamps...)
	sort.Sort(sort.Reverse(sort.Float64Slice(zClamps)))
	capacities := append([]float64(nil), cfg.Capacities...)
	sort.Float64s(capacities)
	space := geo.Rect{MinX: 0, MinY: 0, MaxX: cfg.SpaceSide, MaxY: cfg.SpaceSide}

	rep := &Report{
		Nodes:        cfg.Nodes,
		Rate:         cfg.Rate,
		SpaceSide:    cfg.SpaceSide,
		Seed:         cfg.Seed,
		L:            cfg.L,
		SLO:          cfg.Objective,
		Scenarios:    cfg.Scenarios,
		GridCapacity: capacities,
		GridZClamps:  zClamps,
		GridPolicies: cfg.Policies,
	}
	total := len(capacities) * len(zClamps) * len(cfg.Policies) * len(cfg.Scenarios)
	done := 0
	for _, c := range capacities {
		for _, z := range zClamps {
			for _, polName := range cfg.Policies {
				combo := &Combo{Capacity: c, ZClamp: z, Policy: polName, Feasible: true, WorstRung: admission.Healthy.String()}
				worstRung := admission.Healthy
				for _, scen := range cfg.Scenarios {
					o, err := Simulate(SimConfig{
						Scenario: scen,
						Space:    space,
						Nodes:    cfg.Nodes,
						Rate:     cfg.Rate,
						Seed:     cfg.Seed,
						Capacity: c,
						ZClamp:   z,
						Policy:   polName,
						L:        cfg.L,
					})
					if err != nil {
						return nil, err
					}
					combo.Outcomes = append(combo.Outcomes, o)
					combo.Feasible = combo.Feasible && o.MeetsSLO(cfg.Objective)
					if o.P99LatencyMS > combo.WorstP99MS {
						combo.WorstP99MS = o.P99LatencyMS
					}
					if o.MeanInaccuracyM > combo.WorstInaccuracyM {
						combo.WorstInaccuracyM = o.MeanInaccuracyM
					}
					if o.maxRung > worstRung {
						worstRung = o.maxRung
						combo.WorstRung = worstRung.String()
					}
					done++
					if cfg.Progress != nil {
						cfg.Progress(done, total, o)
					}
				}
				rep.Combos = append(rep.Combos, combo)
				if combo.Feasible && rep.Recommended == nil {
					rep.Recommended = combo
				}
			}
		}
	}
	rep.Feasible = rep.Recommended != nil

	// Replay verification: re-simulate the recommendation on every
	// scenario and require byte-identical outcomes that still meet the
	// SLO — the planner's own determinism check, embedded in the
	// artifact.
	if rep.Recommended != nil {
		rep.Verified = true
		for i, scen := range cfg.Scenarios {
			o, err := Simulate(SimConfig{
				Scenario: scen,
				Space:    space,
				Nodes:    cfg.Nodes,
				Rate:     cfg.Rate,
				Seed:     cfg.Seed,
				Capacity: rep.Recommended.Capacity,
				ZClamp:   rep.Recommended.ZClamp,
				Policy:   rep.Recommended.Policy,
				L:        cfg.L,
			})
			if err != nil {
				return nil, err
			}
			first := rep.Recommended.Outcomes[i]
			if *o != *first || !o.MeetsSLO(cfg.Objective) {
				rep.Verified = false
			}
		}
	}
	return rep, nil
}

// RungFromName parses an admission-ladder rung name ("healthy",
// "warning", "shed", "critical") for the liraplan CLI.
func RungFromName(name string) (admission.State, error) {
	for st := admission.Healthy; st <= admission.Critical; st++ {
		if st.String() == name {
			return st, nil
		}
	}
	return 0, fmt.Errorf("plan: unknown admission rung %q", name)
}
