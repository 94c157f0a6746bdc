package plan

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Report is the BENCH_PR9.json artifact: the full measured sweep, the
// recommendation, and the embedded replay verification. Marshaling is
// deterministic — fixed field order, no maps, no wall-clock timestamps —
// so equal (seed, config) runs emit byte-identical artifacts.
type Report struct {
	// Command records the invoking command line (set by liraplan).
	Command string `json:"command"`

	Nodes     int     `json:"nodes"`
	Rate      float64 `json:"rate"`
	SpaceSide float64 `json:"space_side_m"`
	Seed      uint64  `json:"seed"`
	L         int     `json:"regions"`

	SLO       SLO      `json:"slo"`
	Scenarios []string `json:"scenarios"`

	GridCapacity []float64 `json:"grid_capacity"`
	GridZClamps  []float64 `json:"grid_z_clamps"`
	GridPolicies []string  `json:"grid_policies"`

	Combos []*Combo `json:"combos"`

	// Feasible reports whether any combo met the SLO on every scenario;
	// Recommended is the cheapest such combo (sweep order). Verified is
	// the embedded replay check: the recommendation re-simulated
	// byte-identically and still met the SLO on every scenario.
	Feasible    bool   `json:"feasible"`
	Recommended *Combo `json:"recommended"`
	Verified    bool   `json:"verified"`
}

// Marshal is the artifact encoding: indented JSON with a trailing
// newline. Defined on Report so the schema is a deliberate surface
// (scripts/plan_smoke.sh greps it), not an accident at each call site.
func (r *Report) Marshal() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Marshal is the artifact encoding for the measured-mode report:
// indented JSON with a trailing newline, the same deliberate schema
// surface as Report.Marshal (scripts/measured_smoke.sh greps it).
func (r *MeasuredReport) Marshal() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Table renders the human-readable measured plan: one row per (z,
// policy) combo with its worst measured errors, the recommendation
// marked, followed by the recommended combo's per-workload breakdown.
func (r *MeasuredReport) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "measured capacity plan: %d nodes, L=%d, seed %d\n", r.Nodes, r.L, r.Seed)
	fmt.Fprintf(&b, "SLO (measured): E^C ≤ %.4f, E^P ≤ %.1f m\n", r.SLO.MaxEC, r.SLO.MaxEPM)
	names := make([]string, len(r.Workloads))
	for i, w := range r.Workloads {
		if w == "" {
			w = "trace"
		}
		names[i] = w
	}
	fmt.Fprintf(&b, "workloads: %s\n\n", strings.Join(names, ", "))

	fmt.Fprintf(&b, "%-6s %-14s %10s %12s %-8s\n",
		"z", "policy", "worst EC", "worst EP", "meets")
	for _, c := range r.Combos {
		mark := ""
		if r.Recommended == c {
			mark = "  ← recommended"
		}
		feas := "no"
		if c.Feasible {
			feas = "yes"
		}
		fmt.Fprintf(&b, "%-6.2f %-14s %10.4f %10.1f m %-8s%s\n",
			c.Z, c.Policy, c.WorstEC, c.WorstEPM, feas, mark)
	}

	b.WriteString("\n")
	if r.Recommended == nil {
		b.WriteString("no feasible configuration on this grid — raise z, relax the SLO, or widen the grid\n")
		return b.String()
	}
	c := r.Recommended
	fmt.Fprintf(&b, "recommended: z=%.2f policy=%s (verified=%v)\n", c.Z, c.Policy, r.Verified)
	fmt.Fprintf(&b, "%-22s %10s %12s %10s %-8s\n",
		"workload", "EC", "EP", "achieved", "budget")
	for _, cell := range c.Cells {
		w := cell.Workload
		if w == "" {
			w = "trace"
		}
		fmt.Fprintf(&b, "%-22s %10.4f %10.1f m %10.3f %-8v\n",
			w, cell.EC, cell.EP, cell.AchievedFraction, cell.BudgetMet)
	}
	return b.String()
}

// Table renders the human-readable plan: one row per combo with its
// worst-case measurements, the recommendation marked, followed by the
// recommended combo's per-scenario breakdown.
func (r *Report) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "capacity plan: %d nodes, %.0f updates/tick baseline (capacity 1 drains exactly that)\n",
		r.Nodes, r.Rate)
	fmt.Fprintf(&b, "SLO: p99 ≤ %.0f ms, inaccuracy ≤ %.0f m, rung ≤ %s\n",
		r.SLO.P99LatencyMS, r.SLO.MaxInaccuracyM, r.SLO.MaxRungName)
	fmt.Fprintf(&b, "scenarios: %s\n\n", strings.Join(r.Scenarios, ", "))

	fmt.Fprintf(&b, "%-8s %-8s %-14s %12s %14s %-10s %-8s\n",
		"capacity", "z-clamp", "policy", "worst p99", "worst inacc", "worst rung", "meets")
	for _, c := range r.Combos {
		mark := ""
		if r.Recommended == c {
			mark = "  ← recommended"
		}
		feas := "no"
		if c.Feasible {
			feas = "yes"
		}
		fmt.Fprintf(&b, "%-8g %-8.2f %-14s %9.0f ms %12.1f m %-10s %-8s%s\n",
			c.Capacity, c.ZClamp, c.Policy,
			c.WorstP99MS, c.WorstInaccuracyM, c.WorstRung, feas, mark)
	}

	b.WriteString("\n")
	if r.Recommended == nil {
		b.WriteString("no feasible configuration on this grid — raise capacity, relax the SLO, or widen the grid\n")
		return b.String()
	}
	c := r.Recommended
	fmt.Fprintf(&b, "recommended: capacity=%g z-clamp=%.2f policy=%s (verified=%v)\n",
		c.Capacity, c.ZClamp, c.Policy, r.Verified)
	fmt.Fprintf(&b, "%-22s %12s %14s %-10s %10s %10s\n",
		"scenario", "p99", "inaccuracy", "rung", "dropped", "pre-shed")
	for _, o := range c.Outcomes {
		fmt.Fprintf(&b, "%-22s %9.0f ms %12.1f m %-10s %10d %10d\n",
			o.Scenario, o.P99LatencyMS, o.MeanInaccuracyM, o.MaxRung, o.Dropped, o.PreShed)
	}
	return b.String()
}
