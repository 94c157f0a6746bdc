// Command lirabench regenerates the tables and figures of the LIRA paper's
// evaluation section (§4). Each experiment prints an aligned text table
// with a note recalling what the paper reports, so shape comparisons are
// immediate.
//
// Usage:
//
//	lirabench -exp all                 # everything, quick scale
//	lirabench -exp fig4,fig5 -scale paper
//	lirabench -nodes 4000 -exp fig9
//	lirabench -parallel 4              # 4 sweep workers, same tables
//	lirabench -json BENCH_PR1.json     # serial-vs-parallel timing report
//	lirabench -policy -policyjson BENCH_PR10.json
//	lirabench -admission -admissionjson BENCH_PR7.json
//
// Scales: "quick" (default) runs a reduced environment in a couple of
// minutes; "paper" uses the full Table 2 parameters (10 000 nodes, ≈200
// km², l = 250) and takes correspondingly longer.
//
// -parallel sets the sweep worker count (0 = GOMAXPROCS, 1 = serial).
// Results are byte-identical at every setting. -json switches to benchmark
// mode: each Run-based figure is generated twice — serially and with the
// configured parallelism — and a JSON report of wall-clock times, speedups,
// and an output-identity check is written to the given path instead of the
// tables.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"lira/internal/experiment"
	"lira/internal/roadnet"
	"lira/internal/workload"
)

func main() {
	var (
		exps     = flag.String("exp", "all", "comma-separated experiment ids: fig1,fig3,fig4,...,fig14,table3 or all")
		scale    = flag.String("scale", "quick", "quick | paper")
		nodes    = flag.Int("nodes", 0, "override mobile node count")
		duration = flag.Int("duration", 0, "override measured ticks per run")
		seed     = flag.Uint64("seed", 1, "environment seed")
		parallel = flag.Int("parallel", 0, "sweep worker count: 0 = GOMAXPROCS, 1 = serial")
		jsonOut  = flag.String("json", "", "write a serial-vs-parallel benchmark report to this path instead of printing tables")
		obs      = flag.Bool("obs", false, "measure telemetry overhead and print the Evaluate-latency histogram and per-stage breakdown (embedded in the -json report when both are set)")
		policy   = flag.Bool("policy", false, "measured policy-comparison mode: run every canonical-registry policy (random-drop through hysteresis) through full reference-vs-candidate simulations over the road trace and a flash-crowd scenario, reporting measured E^C/E^P at equal throttle fractions")
		polOut   = flag.String("policyjson", "", "write the measured policy-comparison JSON report (BENCH_PR10.json) to this path; implies nothing unless -policy is set")
		saturate = flag.Bool("saturate", false, "saturation mode: ramp the offered update rate against the batched ingest hot path and report achieved throughput, p99 Evaluate latency, and GC stats per step, plus the single-core per-update-vs-batch path comparison")
		satOut   = flag.String("saturatejson", "", "write the saturation JSON report (BENCH_PR6.json) to this path; stdout when empty")
		satBase  = flag.Float64("satbase", 100000, "saturation mode: offered rate of the first ramp step, updates/sec (doubles each step)")
		satSteps = flag.Int("satsteps", 7, "saturation mode: ramp step count")
		satSlice = flag.Duration("satslice", 400*time.Millisecond, "saturation mode: wall-clock slice per ramp step")
		satBatch = flag.Int("satbatch", 64, "saturation mode: records per wire batch")

		adm    = flag.Bool("admission", false, "admission mode: drive a seeded flash-crowd overload through the admission controller's degradation ladder and report the ladder timeline, escalation/recovery ticks, pre-ring shedding, and healthy-state overhead (on vs off)")
		admOut = flag.String("admissionjson", "", "write the admission overload JSON report (BENCH_PR7.json) to this path; stdout when empty")

		spansOv  = flag.Bool("spansoverhead", false, "span-tracing mode: run the same deterministic sweep with tracing absent, disabled, sampled, and fully on; report the wall-clock overhead at each arming level and verify byte-identical trace exports")
		spansOut = flag.String("spansjson", "", "write the span-overhead JSON report (BENCH_PR8.json) to this path; stdout when empty")
	)
	flag.Parse()

	if *spansOv {
		sNodes, sTicks := 1500, 240
		if *nodes > 0 {
			sNodes = *nodes
		}
		if *duration > 0 {
			sTicks = *duration
		}
		if err := runSpansOverhead(sNodes, sTicks, *seed, *spansOut); err != nil {
			fatal(err)
		}
		return
	}

	if *adm {
		aNodes, aTicks := 2000, 0
		if *nodes > 0 {
			aNodes = *nodes
		}
		if *duration > 0 {
			aTicks = *duration
		}
		if err := runAdmissionBench(aNodes, aTicks, *seed, *admOut); err != nil {
			fatal(err)
		}
		return
	}

	if *saturate {
		sNodes := 2000
		if *nodes > 0 {
			sNodes = *nodes
		}
		if err := runSaturate(sNodes, *satBatch, *satSteps, *satBase, *satSlice, *satOut); err != nil {
			fatal(err)
		}
		return
	}

	if *policy {
		pNodes, pTicks := 1200, 120
		if *nodes > 0 {
			pNodes = *nodes
		}
		if *duration > 0 {
			pTicks = *duration
		}
		if err := runPolicyBench(pNodes, pTicks, 22, *seed, *parallel, *polOut); err != nil {
			fatal(err)
		}
		return
	}

	envCfg, sweep := configsFor(*scale)
	if *nodes > 0 {
		envCfg.Nodes = *nodes
	}
	if *duration > 0 {
		sweep.Base.DurationTicks = *duration
	}
	envCfg.Net.Seed = *seed
	envCfg.TraceSeed = *seed + 1
	sweep.Parallel = *parallel

	fmt.Fprintf(os.Stderr, "building environment: %d nodes, %.0f km² space, calibrating f(Δ)...\n",
		envCfg.Nodes, spaceArea(envCfg)/1e6)
	start := time.Now()
	env, err := experiment.NewEnv(envCfg)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "environment ready in %v (f(Δ⊣) = %.3f)\n\n",
		time.Since(start).Round(time.Millisecond), env.Curve.Eval(env.Curve.MaxDelta()))

	wanted := map[string]bool{}
	for _, id := range strings.Split(*exps, ",") {
		wanted[strings.TrimSpace(id)] = true
	}
	all := wanted["all"]

	var obsRep *obsReport
	if *obs {
		var err error
		if obsRep, err = runObs(env, sweep.Base); err != nil {
			fatal(err)
		}
	}

	if *jsonOut != "" {
		if err := writeBenchReport(*jsonOut, env, sweep, *scale, envCfg.Nodes, wanted, all, obsRep); err != nil {
			fatal(err)
		}
		return
	}
	if obsRep != nil {
		printObs(os.Stdout, obsRep)
	}

	run := func(id string, fn func() (*experiment.Figure, error)) {
		if !all && !wanted[id] {
			return
		}
		t0 := time.Now()
		f, err := fn()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", id, err))
		}
		f.Notes = append(f.Notes, fmt.Sprintf("generated in %v", time.Since(t0).Round(time.Millisecond)))
		f.Render(os.Stdout)
	}

	run("fig1", func() (*experiment.Figure, error) { return experiment.Figure1(env), nil })
	run("fig3", func() (*experiment.Figure, error) {
		f, _, err := experiment.Figure3(env, sweep.Base)
		return f, err
	})
	if all || wanted["fig4"] || wanted["fig5"] {
		t0 := time.Now()
		f4, f5, err := experiment.Figures4and5(env, sweep)
		if err != nil {
			fatal(err)
		}
		note := fmt.Sprintf("generated in %v (shared sweep)", time.Since(t0).Round(time.Millisecond))
		f4.Notes = append(f4.Notes, note)
		f5.Notes = append(f5.Notes, note)
		if all || wanted["fig4"] {
			f4.Render(os.Stdout)
		}
		if all || wanted["fig5"] {
			f5.Render(os.Stdout)
		}
	}
	run("fig6", func() (*experiment.Figure, error) { return experiment.Figure6or7(env, sweep, workload.Inverse) })
	run("fig7", func() (*experiment.Figure, error) { return experiment.Figure6or7(env, sweep, workload.Random) })
	run("fig8", func() (*experiment.Figure, error) { return experiment.Figure8(env, sweep) })
	run("fig9", func() (*experiment.Figure, error) { return experiment.Figure9(env, sweep) })
	run("fig10", func() (*experiment.Figure, error) { return experiment.Figure10(env, sweep) })
	run("fig11", func() (*experiment.Figure, error) { return experiment.Figure11(env, sweep) })
	run("fig12", func() (*experiment.Figure, error) { return experiment.Figure12(env, sweep) })
	run("fig13", func() (*experiment.Figure, error) { return experiment.Figure13(env, sweep) })
	run("fig14", func() (*experiment.Figure, error) { return experiment.Figure14(env, sweep) })
	run("table3", func() (*experiment.Figure, error) { return experiment.Table3(env, sweep) })
}

// configsFor maps a scale name to an environment and sweep.
func configsFor(scale string) (experiment.EnvConfig, experiment.Sweep) {
	switch scale {
	case "paper":
		envCfg := experiment.DefaultEnvConfig()
		sweep := experiment.DefaultSweep()
		sweep.Base.DurationTicks = 1800
		return envCfg, sweep
	case "quick":
		netCfg := roadnet.DefaultConfig()
		netCfg.Side = 7000
		netCfg.GridStep = 350
		netCfg.Centers = 3
		netCfg.CenterRadius = 1400
		envCfg := experiment.DefaultEnvConfig()
		envCfg.Net = netCfg
		envCfg.Nodes = 3000
		envCfg.CalibNodes = 800
		envCfg.CalibTicks = 180
		base := experiment.DefaultRunConfig()
		base.L = 100
		base.WarmupTicks = 90
		base.DurationTicks = 600
		sweep := experiment.DefaultSweep()
		sweep.Base = base
		sweep.Ls = []int{13, 49, 100, 250}
		sweep.CostLs = []int{13, 49, 100, 250, 520}
		sweep.Radii = []float64{700, 1400, 2100, 2800, 3500}
		return envCfg, sweep
	default:
		fatal(fmt.Errorf("unknown scale %q (want quick or paper)", scale))
		panic("unreachable")
	}
}

func spaceArea(cfg experiment.EnvConfig) float64 {
	side := cfg.Net.Side
	if side == 0 {
		side = roadnet.DefaultConfig().Side
	}
	return side * side
}

// benchEntry records one figure's serial-vs-parallel comparison.
type benchEntry struct {
	ID         string  `json:"id"`
	SerialMS   float64 `json:"serial_ms"`
	ParallelMS float64 `json:"parallel_ms"`
	Speedup    float64 `json:"speedup"`
	// IdenticalOutput reports whether the rendered tables from the serial
	// and parallel runs were byte-identical — the determinism contract of
	// the parallel sweep runner.
	IdenticalOutput bool `json:"identical_output"`
}

// benchReport is the schema of the -json artifact (BENCH_PR1.json).
type benchReport struct {
	Command         string       `json:"command"`
	Scale           string       `json:"scale"`
	Nodes           int          `json:"nodes"`
	NumCPU          int          `json:"num_cpu"`
	GOMAXPROCS      int          `json:"gomaxprocs"`
	Workers         int          `json:"parallel_workers"`
	Figures         []benchEntry `json:"figures"`
	TotalSerialMS   float64      `json:"total_serial_ms"`
	TotalParallelMS float64      `json:"total_parallel_ms"`
	TotalSpeedup    float64      `json:"total_speedup"`
	// Telemetry is present when -obs is set: instrumentation overhead and
	// the Evaluate-latency breakdown (see obsReport).
	Telemetry *obsReport `json:"telemetry,omitempty"`
}

func renderFigs(figs ...*experiment.Figure) string {
	var b strings.Builder
	for _, f := range figs {
		f.Render(&b)
	}
	return b.String()
}

// writeBenchReport generates every selected Run-based figure twice — once
// serially, once with the sweep's configured parallelism — and writes the
// wall-clock comparison to path. Figures whose tables embed measured times
// (fig14) or that are not sweep-based (fig1, fig3, table3) are excluded:
// they have no parallel path to compare.
func writeBenchReport(path string, env *experiment.Env, sweep experiment.Sweep, scale string, nodes int, wanted map[string]bool, all bool, obsRep *obsReport) error {
	type target struct {
		ids []string // -exp ids this target satisfies
		run func(sw experiment.Sweep) (string, error)
	}
	targets := []target{
		{[]string{"fig4", "fig5"}, func(sw experiment.Sweep) (string, error) {
			f4, f5, err := experiment.Figures4and5(env, sw)
			if err != nil {
				return "", err
			}
			return renderFigs(f4, f5), nil
		}},
		{[]string{"fig6"}, func(sw experiment.Sweep) (string, error) {
			f, err := experiment.Figure6or7(env, sw, workload.Inverse)
			if err != nil {
				return "", err
			}
			return renderFigs(f), nil
		}},
		{[]string{"fig7"}, func(sw experiment.Sweep) (string, error) {
			f, err := experiment.Figure6or7(env, sw, workload.Random)
			if err != nil {
				return "", err
			}
			return renderFigs(f), nil
		}},
	}
	simple := []struct {
		id string
		fn func(*experiment.Env, experiment.Sweep) (*experiment.Figure, error)
	}{
		{"fig8", experiment.Figure8},
		{"fig9", experiment.Figure9},
		{"fig10", experiment.Figure10},
		{"fig11", experiment.Figure11},
		{"fig12", experiment.Figure12},
		{"fig13", experiment.Figure13},
	}
	for _, s := range simple {
		fn := s.fn
		targets = append(targets, target{[]string{s.id}, func(sw experiment.Sweep) (string, error) {
			f, err := fn(env, sw)
			if err != nil {
				return "", err
			}
			return renderFigs(f), nil
		}})
	}

	workers := sweep.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	report := benchReport{
		Command:    strings.Join(os.Args, " "),
		Scale:      scale,
		Nodes:      nodes,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    workers,
		Telemetry:  obsRep,
	}
	for _, tg := range targets {
		selected := all
		for _, id := range tg.ids {
			selected = selected || wanted[id]
		}
		if !selected {
			continue
		}
		id := strings.Join(tg.ids, "+")
		fmt.Fprintf(os.Stderr, "bench %-10s serial...", id)

		serialSweep := sweep
		serialSweep.Parallel = 1
		t0 := time.Now()
		serialOut, err := tg.run(serialSweep)
		if err != nil {
			return fmt.Errorf("%s (serial): %w", id, err)
		}
		serialMS := float64(time.Since(t0).Microseconds()) / 1e3

		fmt.Fprintf(os.Stderr, " %8.0fms  parallel×%d...", serialMS, workers)
		t0 = time.Now()
		parallelOut, err := tg.run(sweep)
		if err != nil {
			return fmt.Errorf("%s (parallel): %w", id, err)
		}
		parallelMS := float64(time.Since(t0).Microseconds()) / 1e3
		fmt.Fprintf(os.Stderr, " %8.0fms  identical=%v\n", parallelMS, serialOut == parallelOut)

		entry := benchEntry{
			ID:              id,
			SerialMS:        serialMS,
			ParallelMS:      parallelMS,
			IdenticalOutput: serialOut == parallelOut,
		}
		if parallelMS > 0 {
			entry.Speedup = serialMS / parallelMS
		}
		report.Figures = append(report.Figures, entry)
		report.TotalSerialMS += serialMS
		report.TotalParallelMS += parallelMS
	}
	if report.TotalParallelMS > 0 {
		report.TotalSpeedup = report.TotalSerialMS / report.TotalParallelMS
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s (total speedup %.2f× with %d workers on %d CPUs)\n",
		path, report.TotalSpeedup, workers, report.NumCPU)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lirabench:", err)
	os.Exit(1)
}
