// Command lirasim runs a single LIRA simulation and prints the §4.1
// accuracy metrics plus the update and messaging accounting.
//
// Usage:
//
//	lirasim -strategy lira -z 0.5 -l 250
//	lirasim -strategy random-drop -z 0.3 -nodes 4000 -dist inverse
//	lirasim -journal run.jsonl -series series.txt -timing=false
//
// -journal captures the control loop's decision journal as JSONL;
// -series prints the per-evaluation-period telemetry series as a table;
// -spans exports the candidate's pipeline span trace (adaptation stages,
// query evaluation phases) as Chrome trace-event JSON, clocked in
// simulation time. All are deterministic under a fixed seed. -timing=false suppresses
// the two wall-clock output lines, making stdout byte-reproducible (the
// telemetry zero-diff check in scripts/check.sh relies on this).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"lira/internal/experiment"
	"lira/internal/roadnet"
	"lira/internal/shedding"
	"lira/internal/spans"
	"lira/internal/telemetry"
	"lira/internal/workload"
)

func main() {
	var (
		strategy = flag.String("strategy", "lira", "lira | lira-grid | uniform-delta | random-drop")
		z        = flag.Float64("z", 0.5, "throttle fraction")
		l        = flag.Int("l", 100, "number of shedding regions")
		fairness = flag.Float64("fairness", 50, "fairness threshold Δ⇔ (meters)")
		nodes    = flag.Int("nodes", 3000, "mobile node count")
		side     = flag.Float64("side", 7000, "space side length (meters)")
		mon      = flag.Float64("mn", 0.01, "query-to-node ratio m/n")
		w        = flag.Float64("w", 1000, "query side length parameter (meters)")
		dist     = flag.String("dist", "proportional", "proportional | inverse | random")
		duration = flag.Int("duration", 600, "measured ticks (1 s each)")
		seed     = flag.Uint64("seed", 1, "simulation seed")
		journal  = flag.String("journal", "", "write the decision journal to this JSONL file")
		series   = flag.String("series", "", "write the per-period telemetry series table to this file")
		spansOut = flag.String("spans", "", "write the pipeline span trace to this file (Chrome trace-event JSON)")
		timing   = flag.Bool("timing", true, "print wall-clock lines (disable for byte-reproducible output)")
	)
	flag.Parse()

	kind, err := parseStrategy(*strategy)
	if err != nil {
		fatal(err)
	}
	qd, err := parseDist(*dist)
	if err != nil {
		fatal(err)
	}

	netCfg := roadnet.DefaultConfig()
	netCfg.Side = *side
	netCfg.GridStep = *side / 20
	netCfg.Seed = *seed
	envCfg := experiment.DefaultEnvConfig()
	envCfg.Net = netCfg
	envCfg.Nodes = *nodes
	envCfg.TraceSeed = *seed + 1
	envCfg.CalibNodes = min(*nodes, 1000)
	envCfg.CalibTicks = 180

	fmt.Fprintln(os.Stderr, "building environment...")
	env, err := experiment.NewEnv(envCfg)
	if err != nil {
		fatal(err)
	}

	cfg := experiment.DefaultRunConfig()
	cfg.Strategy = kind
	cfg.Z = *z
	cfg.L = *l
	cfg.Fairness = *fairness
	cfg.MOverN = *mon
	cfg.QuerySide = *w
	cfg.QueryDist = qd
	cfg.DurationTicks = *duration
	cfg.Seed = *seed + 2

	// Telemetry rides along whenever an output wants it. It is passive:
	// the metric lines below are identical with and without it.
	var hub *telemetry.Hub
	var tracer *spans.Tracer
	if *journal != "" || *series != "" || *spansOut != "" {
		hub = telemetry.NewHub(0)
		cfg.Telemetry = hub
		if *journal != "" {
			f, err := os.Create(*journal)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			hub.Journal.SetSink(f)
		}
		if *spansOut != "" {
			// The tracer's clock is slaved to the hub clock, which the
			// experiment drives from simulation time — so the exported
			// trace is byte-identical under a fixed seed.
			tracer = spans.New(spans.Config{Seed: *seed})
			hub.SetSpans(tracer)
		}
	}

	start := time.Now()
	res, err := experiment.Run(env, cfg)
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)

	if tracer != nil {
		f, err := os.Create(*spansOut)
		if err != nil {
			fatal(err)
		}
		if err := tracer.WriteJSON(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	if hub != nil {
		if err := hub.Journal.Err(); err != nil {
			fatal(fmt.Errorf("journal sink: %w", err))
		}
		if *series != "" {
			f, err := os.Create(*series)
			if err != nil {
				fatal(err)
			}
			fig := experiment.SeriesFigure("series", "per-period telemetry", hub, []string{
				"sim_sent_updates", "sim_admitted_updates",
				"sim_reference_updates", "sim_containment_mean",
			})
			fig.Render(f)
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}
	}

	fmt.Printf("strategy            %v\n", res.Strategy)
	fmt.Printf("throttle fraction   %.3f (achieved %.3f, budget met: %v)\n",
		res.Z, res.AchievedFraction, res.BudgetMet)
	fmt.Printf("containment error   %.4f (stddev %.4f, cov %.3f)\n",
		res.Metrics.MeanContainment, res.Metrics.StdDevContainment, res.Metrics.CovContainment)
	fmt.Printf("position error      %.2f m\n", res.Metrics.MeanPosition)
	fmt.Printf("updates             reference %d, sent %d, admitted %d\n",
		res.ReferenceUpdates, res.SentUpdates, res.AdmittedUpdates)
	if *timing {
		fmt.Printf("config cost         %v\n", res.ConfigElapsed.Round(time.Microsecond))
	}
	fmt.Printf("base stations       %d (%.1f regions, %.0f B broadcast each; %d hand-offs)\n",
		res.Stations, res.RegionsPerStation, res.BroadcastBytesPerStation, res.Handoffs)
	if *timing {
		fmt.Printf("wall clock          %v\n", elapsed.Round(time.Millisecond))
	}
}

func parseStrategy(s string) (shedding.Kind, error) {
	for _, k := range shedding.Kinds() {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown strategy %q", s)
}

func parseDist(s string) (workload.Distribution, error) {
	for _, d := range []workload.Distribution{workload.Proportional, workload.Inverse, workload.Random} {
		if d.String() == s {
			return d, nil
		}
	}
	return 0, fmt.Errorf("unknown distribution %q", s)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lirasim:", err)
	os.Exit(1)
}
