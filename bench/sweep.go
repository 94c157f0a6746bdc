package main

import (
	"encoding/json"
	"fmt"
	"runtime/debug"
	"syscall"
	"time"

	"lira/internal/controlplane"
	"lira/internal/experiment"
	"lira/internal/roadnet"
)

// Sweep size: every registered policy at three throttle fractions where
// shedding binds (z ≤ 0.55), over the road trace and the blackout
// scenario, each cell one full reference-vs-candidate simulation.
const (
	sweepNodes    = 1500
	sweepWarmup   = 40
	sweepDuration = 100
	sweepL        = 100
	sweepQueries  = 150
	sweepSetups   = 15 // NewEnv takes ~30 ms; the median of many is steady
)

var (
	sweepZs        = []float64{0.55, 0.5, 0.3}
	sweepWorkloads = []string{"", "blackout"}
)

// sweepEnvConfig is the environment of the measured sweep: a 25 km² road
// network, the same for every seed so the work per cell is fixed, with
// the seed's trace and a calibrated f(Δ).
func sweepEnvConfig(seed uint64) experiment.EnvConfig {
	netCfg := roadnet.DefaultConfig()
	netCfg.Side = 5000
	netCfg.GridStep = 400
	netCfg.Centers = 2
	netCfg.CenterRadius = 1000
	netCfg.Seed = 1
	return experiment.EnvConfig{
		Net:        netCfg,
		Nodes:      sweepNodes,
		TraceSeed:  seed + 1,
		CalibNodes: 400,
		CalibTicks: 120,
	}
}

// sweepBase is the per-cell run template.
func sweepBase(seed uint64) experiment.RunConfig {
	base := experiment.DefaultRunConfig()
	base.L = sweepL
	base.WarmupTicks = sweepWarmup
	base.DurationTicks = sweepDuration
	base.EvalEvery = 30
	base.ReAdaptEvery = 60
	base.QueryCount = sweepQueries
	base.Seed = seed
	return base
}

// sweepCell is one (workload, z, policy) coordinate of the grid.
type sweepCell struct {
	workload string
	z        float64
	policy   string
}

func sweepCells() []sweepCell {
	var cells []sweepCell
	for _, w := range sweepWorkloads {
		for _, z := range sweepZs {
			for _, p := range controlplane.RegisteredNames() {
				cells = append(cells, sweepCell{w, z, p})
			}
		}
	}
	return cells
}

// processCPU returns the process's user and system CPU time in seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// measureCell runs experiment.Measure over one cell, serially.
func measureCell(env *experiment.Env, base experiment.RunConfig, c sweepCell) (experiment.MeasuredCell, error) {
	mc, err := experiment.Measure(env, experiment.MeasuredConfig{
		Base:      base,
		Zs:        []float64{c.z},
		Policies:  []string{c.policy},
		Workloads: []string{c.workload},
		Parallel:  1,
	})
	if err != nil {
		return experiment.MeasuredCell{}, err
	}
	return mc.Cells[0], nil
}

// sweepEndToEnd builds the environment sweepSetups times, then measures
// the whole grid pass after pass until secs have elapsed (at least two
// passes, so determinism can be checked).
func sweepEndToEnd(rep *report, seed uint64, secs float64) error {
	var setup []float64
	var env *experiment.Env
	for i := 0; i < sweepSetups; i++ {
		debug.FreeOSMemory()
		start := time.Now()
		e, err := experiment.NewEnv(sweepEnvConfig(seed))
		if err != nil {
			return err
		}
		setup = append(setup, time.Since(start).Seconds())
		env = e
	}
	base := sweepBase(seed)
	cells := sweepCells()
	var cellMS, passS, passCPU []float64
	var first []experiment.MeasuredCell
	var firstJSON []byte
	passes := 0
	start := time.Now()
	for passes < 2 || time.Since(start).Seconds() < secs {
		passStart, cpuStart := time.Now(), processCPU()
		got := make([]experiment.MeasuredCell, len(cells))
		for i, c := range cells {
			t0 := time.Now()
			mc, err := measureCell(env, base, c)
			if err != nil {
				return fmt.Errorf("cell %+v: %w", c, err)
			}
			cellMS = append(cellMS, 1000*time.Since(t0).Seconds())
			got[i] = mc
		}
		passS = append(passS, time.Since(passStart).Seconds())
		passCPU = append(passCPU, processCPU()-cpuStart)
		js, err := json.Marshal(got)
		if err != nil {
			return err
		}
		if passes == 0 {
			first, firstJSON = got, js
		} else {
			rep.check(string(js) == string(firstJSON), "pass %d cells differ from pass 1 at seed %d", passes+1, seed)
		}
		passes++
	}

	var ecSum, epSum float64
	var liraCells int
	for _, c := range first {
		if c.Policy == "lira" {
			ecSum += c.EC
			epSum += c.EP
			liraCells++
		}
	}
	rep.check(liraCells > 0, "no lira cells in the sweep")
	liraEC, liraEP := ecSum/float64(liraCells), epSum/float64(liraCells)
	rep.check(liraEC > 0 && liraEP > 0, "lira measured no error (E^C %v, E^P %v): the sweep does not bind", liraEC, liraEP)
	cell := summarize(append([]float64(nil), cellMS...))
	cpu := summarize(append([]float64(nil), passCPU...))
	var cpuSum float64
	for _, c := range passCPU {
		cpuSum += c
	}
	nodeTicks := float64(len(cellMS) * sweepNodes * (sweepWarmup + sweepDuration))

	// A pass over the grid is the harness's unit of answer. Its cost is
	// the process CPU time of the pass: the sweep is one goroutine of
	// computation, and on a shared host its wall time also counts the
	// time the hypervisor runs other guests, which moved pass times by a
	// third between runs. Wall times are detail lines.
	rep.set("setup_s", median(setup), "s")
	rep.set("latency_p50_ms", 1000*cpu.P50, "ms")
	rep.set("latency_p90_ms", 1000*cpu.P90, "ms")
	rep.set("goodput_per_s", nodeTicks/cpuSum, "1/s")
	rep.set("result_ec", liraEC, "ratio")

	rep.note("sweep_s", fmt.Sprintf("%.4f (median of %d passes)", median(passS), passes), "s")
	rep.note("sweep_cpu_s", fmt.Sprintf("%.4f", cpu.P50), "s")
	rep.note("cell_p50_ms", fmt.Sprintf("%.3f", cell.P50), "ms")
	rep.note("cell_tail_ms", fmt.Sprintf("%.3f (p%.1f of %d)", cell.Tail, 100*cell.TailP, cell.N), "ms")
	rep.note("lira_ec", fmt.Sprintf("%.6f", liraEC), "ratio")
	rep.note("lira_ep_m", fmt.Sprintf("%.4f", liraEP), "m")
	rep.note("cells_per_pass", len(cells), "")
	rep.note("node_ticks_per_cpu_s", fmt.Sprintf("%.1f", nodeTicks/cpuSum), "1/s")
	rep.note("setup_each_s", fmt.Sprint(setup), "s")
	rep.Attempted = len(cellMS)
	return nil
}
