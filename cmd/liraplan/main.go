// Command liraplan is the deterministic capacity planner: given a fleet
// size, a baseline report rate, and an SLO, it sweeps drain capacity ×
// throttle clamp z × controlplane policy across the named scenario
// catalog (SCENARIOS.md) and reports the cheapest configuration whose
// worst case still meets the SLO.
//
// Usage:
//
//	liraplan                                  # default grid, plan table on stdout
//	liraplan -nodes 2000 -rate 200 \
//	         -slo-p99ms 2500 -slo-inacc 8 -slo-rung warning
//	liraplan -json BENCH_PR9.json             # also write the JSON artifact
//	liraplan -scenarios blackout,query-churn  # restrict the catalog
//	liraplan -capacity 1,2,4,8 -zclamps 1,0.7,0.4 # widen the grid
//	liraplan -measured -slo-ec 0.02 -slo-ep 5 # SLO on measured E^C/E^P
//
// The default mode judges candidates against the closed-loop capacity
// model. With -measured, the SLO instead bounds the *measured* §4.1
// errors: every (z, policy) cell is one full reference-vs-candidate
// simulation (experiment.Measure) over the selected workloads, and the
// cheapest combo — z ascending, then policy in registry order — whose
// measured E^C/E^P meet the SLO everywhere is recommended.
//
// Every run is a pure function of (seed, flags): the same invocation
// emits a byte-identical artifact, and the recommendation is re-simulated
// in-process before it is reported (the "verified" field).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"lira/internal/experiment"
	"lira/internal/plan"
	"lira/internal/roadnet"
)

func main() {
	var (
		nodes   = flag.Int("nodes", 2000, "fleet size (mobile nodes)")
		rate    = flag.Float64("rate", 0, "baseline aggregate report rate, updates/tick (0 = nodes/10)")
		side    = flag.Float64("side", 6000, "monitored square side, meters")
		seed    = flag.Uint64("seed", 1, "scenario + thinning seed")
		regions = flag.Int("l", 13, "shedding-region count L")

		caps    = flag.String("capacity", "1,2,4", "comma-separated drain capacities to sweep, as multiples of -rate (1 exactly keeps up with the baseline)")
		zclamps = flag.String("zclamps", "1,0.7,0.4", "comma-separated throttle clamps to sweep")
		pols    = flag.String("policies", "", "comma-separated controlplane policies (empty = all)")
		scens   = flag.String("scenarios", "", "comma-separated catalog scenarios (empty = all; see SCENARIOS.md)")

		sloP99   = flag.Float64("slo-p99ms", 2500, "SLO: p99 modeled Evaluate latency bound, ms")
		sloInacc = flag.Float64("slo-inacc", 8, "SLO: query-weighted mean inaccuracy bound, meters")
		sloRung  = flag.String("slo-rung", "warning", "SLO: maximum admission rung (healthy|warning|shed|critical)")

		measured = flag.Bool("measured", false, "measured mode: SLO bounds measured E^C/E^P from full reference-vs-candidate simulations instead of the capacity model")
		zs       = flag.String("zs", "0.3,0.5,0.7", "measured mode: comma-separated throttle fractions to sweep (cheapest = lowest first)")
		wls      = flag.String("workloads", "trace,blackout", "measured mode: comma-separated traffic sources (\"trace\" = road-network trace, rest from the scenario catalog)")
		ticks    = flag.Int("ticks", 90, "measured mode: measured ticks per cell")
		sloEC    = flag.Float64("slo-ec", 0.02, "measured mode SLO: mean containment error bound")
		sloEP    = flag.Float64("slo-ep", 5, "measured mode SLO: mean position error bound, meters")
		parallel = flag.Int("parallel", 0, "measured mode: grid workers (0 = GOMAXPROCS)")

		jsonOut = flag.String("json", "", "write the JSON artifact to this path")
		quiet   = flag.Bool("q", false, "suppress per-cell progress on stderr")
	)
	flag.Parse()
	if *measured {
		if err := runMeasured(*nodes, *side, *seed, *regions, *ticks, *parallel,
			*zs, *pols, *wls, *sloEC, *sloEP, *jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, "liraplan:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*nodes, *rate, *side, *seed, *regions,
		*caps, *zclamps, *pols, *scens, *sloP99, *sloInacc, *sloRung, *jsonOut, *quiet); err != nil {
		fmt.Fprintln(os.Stderr, "liraplan:", err)
		os.Exit(1)
	}
}

// runMeasured is the -measured mode: build a road-network experiment
// environment, sweep z × policy on measured error over the selected
// workloads, and report the cheapest SLO-feasible combo, replay-verified.
func runMeasured(nodes int, side float64, seed uint64, regions, ticks, parallel int,
	zsArg, pols, wlsArg string, sloEC, sloEP float64, jsonOut string) error {
	zvals, err := parseFloats(zsArg)
	if err != nil {
		return fmt.Errorf("-zs: %w", err)
	}
	var workloads []string
	for _, w := range splitList(wlsArg) {
		if w == "trace" {
			w = ""
		}
		workloads = append(workloads, w)
	}
	netCfg := roadnet.DefaultConfig()
	netCfg.Side = side
	netCfg.GridStep = 400
	netCfg.Centers = 2
	netCfg.CenterRadius = side / 5
	netCfg.Seed = seed
	calib := 400
	if nodes < calib {
		calib = nodes
	}
	env, err := experiment.NewEnv(experiment.EnvConfig{
		Net:        netCfg,
		Nodes:      nodes,
		TraceSeed:  seed + 1,
		CalibNodes: calib,
		CalibTicks: 120,
	})
	if err != nil {
		return err
	}
	base := experiment.DefaultRunConfig()
	base.L = regions
	base.Seed = seed
	base.WarmupTicks = 40
	base.DurationTicks = ticks
	base.EvalEvery = 30
	base.ReAdaptEvery = 60
	rep, err := plan.PlanMeasured(plan.MeasuredPlanConfig{
		Env:       env,
		Base:      base,
		Zs:        zvals,
		Policies:  splitList(pols),
		Workloads: workloads,
		Objective: plan.MeasuredSLO{MaxEC: sloEC, MaxEPM: sloEP},
		Parallel:  parallel,
	})
	if err != nil {
		return err
	}
	rep.Command = strings.Join(append([]string{"liraplan"}, os.Args[1:]...), " ")
	if jsonOut != "" {
		data, err := rep.Marshal()
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonOut, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s (feasible=%v verified=%v)\n", jsonOut, rep.Feasible, rep.Verified)
	}
	_, err = os.Stdout.WriteString(rep.Table())
	return err
}

func run(nodes int, rate, side float64, seed uint64, regions int,
	caps, zclamps, pols, scens string, sloP99, sloInacc float64, sloRung, jsonOut string, quiet bool) error {
	if rate <= 0 {
		rate = float64(nodes) / 10
		if rate < 1 {
			rate = 1
		}
	}
	rung, err := plan.RungFromName(sloRung)
	if err != nil {
		return err
	}
	capacities, err := parseFloats(caps)
	if err != nil {
		return fmt.Errorf("-capacity: %w", err)
	}
	clamps, err := parseFloats(zclamps)
	if err != nil {
		return fmt.Errorf("-zclamps: %w", err)
	}
	cfg := plan.Config{
		Nodes:      nodes,
		Rate:       rate,
		SpaceSide:  side,
		Seed:       seed,
		L:          regions,
		Capacities: capacities,
		ZClamps:    clamps,
		Policies:   splitList(pols),
		Scenarios:  splitList(scens),
		Objective:  plan.SLO{P99LatencyMS: sloP99, MaxInaccuracyM: sloInacc, MaxRung: rung},
	}
	if !quiet {
		cfg.Progress = func(done, total int, o *plan.Outcome) {
			fmt.Fprintf(os.Stderr, "\r[%d/%d] capacity=%g z=%.2f %s %s        ",
				done, total, o.Capacity, o.ZClamp, o.Policy, o.Scenario)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	rep, err := plan.Plan(cfg)
	if err != nil {
		return err
	}
	rep.Command = strings.Join(append([]string{"liraplan"}, os.Args[1:]...), " ")
	if jsonOut != "" {
		data, err := rep.Marshal()
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonOut, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s (feasible=%v verified=%v)\n", jsonOut, rep.Feasible, rep.Verified)
	}
	_, err = os.Stdout.WriteString(rep.Table())
	return err
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, p := range splitList(s) {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
