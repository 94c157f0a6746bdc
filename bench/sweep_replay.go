package main

import (
	"time"

	"lira/internal/basestation"
	"lira/internal/controlplane"
	"lira/internal/cqserver"
	"lira/internal/engine"
	"lira/internal/experiment"
	"lira/internal/metrics"
	"lira/internal/mobilenode"
	"lira/internal/motion"
	"lira/internal/workload"
)

// replaySweep traces the harness path: experiment.NewEnv, one pass of
// experiment.Measure cells, then one lira cell's tick loop rebuilt from
// the layers' public calls — trace.Source.Step, mobilenode.Node.Observe,
// engine ingest, Drain and Evaluate, and metrics.ContainmentError against
// the Δ⊢ reference — run once untraced and once traced.
func replaySweep(rep *report, seed uint64) (*tracer, error) {
	tr := newTracer(true)
	root := tr.begin("sweep", "bench", -1)
	sp := tr.begin("new_env", "experiment", root)
	env, err := experiment.NewEnv(sweepEnvConfig(seed))
	tr.end(sp, sweepNodes)
	if err != nil {
		return nil, err
	}
	base := sweepBase(seed)
	var cellS []float64
	for _, c := range sweepCells() {
		sp := tr.begin("measure_cell", "experiment", root)
		if _, err := measureCell(env, base, c); err != nil {
			return nil, err
		}
		tr.end(sp, 1)
		cellS = append(cellS, float64(tr.spans[sp].End-tr.spans[sp].Start)/1e9)
	}
	cell := -1
	_, wall, untraced, err := bracket(func(t *tracer) (struct{}, time.Duration, error) {
		parent := -1
		if t.on {
			// The traced replica runs inside the sweep's own trace.
			t = tr
			cell = tr.begin("cell_replica", "experiment", root)
			parent = cell
		}
		d, err := cellReplica(env, base, t, parent)
		return struct{}{}, d, err
	})
	if err != nil {
		return nil, err
	}
	tr.end(cell, 1)
	tr.end(root, 1)

	setReplayMetrics(rep, tr, wall, untraced)
	rep.set("experiment.cell_s_p50", median(cellS), "s")
	rep.set("experiment.cells", float64(len(cellS)), "count")
	step, cars, _ := tr.total("step")
	rep.set("trace.step_ns_per_car", nsPer(step, cars), "ns")
	obs, observed, _ := tr.total("observe")
	rep.set("mobilenode.observe_ns", nsPer(obs, observed), "ns")
	_, sent, _ := tr.total("ingest")
	rep.set("mobilenode.sent_frac", frac(sent, observed), "ratio")
	ev, queries, _ := tr.total("containment_error")
	rep.set("metrics.eval_ns_per_query", nsPer(ev, queries), "ns")
	ing, recs, _ := tr.total("ingest")
	rep.set("engine.ingest_ns_per_rec", nsPer(ing, recs), "ns")
	dr, drRecs, _ := tr.total("drain")
	rep.set("engine.drain_ns_per_rec", nsPer(dr, drRecs), "ns")
	evs := summarize(tr.durations("evaluate"))
	evD, evQ, evCalls := tr.total("evaluate")
	rep.set("engine.evaluate_ms_p50", evs.P50, "ms")
	rep.set("engine.evaluate_ms_p99", evs.Tail, "ms")
	rep.set("engine.evaluate_ns_per_query", nsPer(evD, evQ), "ns")
	rep.set("engine.evaluate_calls", float64(evCalls), "count")
	st, _, stCalls := tr.total("observe_statistics")
	rep.set("statgrid.observe_ms", ms(st)/float64(max(1, stCalls)), "ms")
	gr, _, adapts := tr.total("partition")
	gi, _, _ := tr.total("assign")
	rep.set("controlplane.gridreduce_ms", ms(gr)/float64(max(1, adapts)), "ms")
	rep.set("controlplane.greedyincrement_ms", ms(gi)/float64(max(1, adapts)), "ms")
	rep.set("controlplane.adapt_ms", ms(gr+gi)/float64(max(1, adapts)), "ms")
	rep.set("controlplane.adapts", float64(adapts), "count")
	dep, _, deps := tr.total("new_deployment")
	rep.set("basestation.deploy_ms", ms(dep)/float64(max(1, deps)), "ms")
	rep.Attempted = len(cellS)
	return tr, nil
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// cellReplica runs one lira cell at z = 0.5 over the road trace the way
// experiment.Run does — warm-up statistics, queries from the warmed
// population, GRIDREDUCE then GREEDYINCREMENT, station broadcasts, then
// the measured ticks — with a span around every layer call.
func cellReplica(env *experiment.Env, base experiment.RunConfig, tr *tracer, parent int) (time.Duration, error) {
	start := time.Now()
	n := env.Cfg.Nodes
	const z = 0.5
	mk := func() (engine.Engine, error) {
		return engine.New(cqserver.Config{Space: env.Space, Nodes: n, L: base.L, Curve: env.Curve, QueueSize: 4 * n}, 1)
	}
	cand, err := mk()
	if err != nil {
		return 0, err
	}
	ref, err := mk()
	if err != nil {
		return 0, err
	}
	src := env.Src
	src.Reset()
	dt := env.Cfg.Dt
	speeds := make([]float64, n)
	observeStats := func() {
		sp := tr.begin("observe_statistics", "statgrid", parent)
		for i, v := range src.Velocities() {
			speeds[i] = v.Len()
		}
		cand.ObserveStatistics(src.Positions(), speeds)
		tr.end(sp, int64(n))
	}
	stepTrace := func() {
		sp := tr.begin("step", "trace", parent)
		src.Step(dt)
		tr.end(sp, int64(n))
	}
	for tick := 0; tick < base.WarmupTicks; tick++ {
		stepTrace()
		if tick%base.StatSampleEvery == 0 {
			observeStats()
		}
	}
	queries, err := workload.GenerateQueries(env.Space, src.Positions(), workload.QueryConfig{
		Count:        base.QueryCount,
		SideLength:   base.QuerySide,
		Distribution: base.QueryDist,
		Seed:         base.Seed ^ 0x5eed,
	})
	if err != nil {
		return 0, err
	}
	cand.RegisterQueries(queries)
	ref.RegisterQueries(queries)
	stations := []basestation.Station{{ID: 0, Center: env.Space.Center(), Radius: env.Space.Width() + env.Space.Height()}}
	cpEnv := controlplane.Env{L: base.L, Curve: env.Curve, Fairness: base.Fairness, UseSpeed: base.UseSpeed}
	var compiled *mobilenode.Compiled
	adapt := func() error {
		pol := controlplane.LiraPolicy{}
		sp := tr.begin("partition", "controlplane", parent)
		part, err := pol.Partition(cand.StatsGrid(), z, cpEnv)
		tr.end(sp, 1)
		if err != nil {
			return err
		}
		sp = tr.begin("assign", "controlplane", parent)
		res, err := pol.Assign(part, z, cpEnv)
		tr.end(sp, int64(len(part.Regions)))
		if err != nil {
			return err
		}
		sp = tr.begin("new_deployment", "basestation", parent)
		deploy, err := basestation.NewDeployment(stations, part, res.Deltas)
		tr.end(sp, int64(len(res.Deltas)))
		if err != nil {
			return err
		}
		sp = tr.begin("compile", "mobilenode", parent)
		compiled = mobilenode.Compile(deploy.Assignments[0])
		tr.end(sp, 1)
		return nil
	}
	if err := adapt(); err != nil {
		return 0, err
	}

	now := float64(base.WarmupTicks) * dt
	pos, vel := src.Positions(), src.Velocities()
	nodes := make([]*mobilenode.Node, n)
	reck := make([]motion.DeadReckoner, n)
	for i := range nodes {
		nodes[i] = mobilenode.NewNode(i)
		nodes[i].Install(0, compiled)
		cand.Apply(cqserver.Update{Node: i, Report: nodes[i].Start(pos[i], vel[i], now)})
		ref.Apply(cqserver.Update{Node: i, Report: reck[i].Start(pos[i], vel[i], now)})
	}
	minDelta := env.Cfg.MinDelta
	var sends []cqserver.Update
	for tick := 1; tick <= base.DurationTicks; tick++ {
		stepTrace()
		now = float64(base.WarmupTicks+tick) * dt
		pos, vel = src.Positions(), src.Velocities()
		if tick%base.StatSampleEvery == 0 {
			observeStats()
		}
		if base.ReAdaptEvery > 0 && tick%base.ReAdaptEvery == 0 {
			if err := adapt(); err != nil {
				return 0, err
			}
			for _, nd := range nodes {
				nd.Install(0, compiled)
			}
		}
		sp := tr.begin("observe", "mobilenode", parent)
		sends = sends[:0]
		for i, nd := range nodes {
			if rep, send := nd.Observe(pos[i], vel[i], now, minDelta); send {
				sends = append(sends, cqserver.Update{Node: i, Report: rep})
			}
			if rep, send := reck[i].Observe(pos[i], vel[i], now, minDelta); send {
				ref.Apply(cqserver.Update{Node: i, Report: rep})
			}
		}
		tr.end(sp, int64(n))
		sp = tr.begin("ingest", "engine", parent)
		cand.IngestShedOldestBatch(sends)
		tr.end(sp, int64(len(sends)))
		sp = tr.begin("drain", "engine", parent)
		drained := cand.Drain(-1)
		tr.end(sp, int64(drained))
		if tick%base.EvalEvery == 0 {
			sp = tr.begin("evaluate", "engine", parent)
			got := cand.Evaluate(now)
			want := ref.Evaluate(now)
			tr.end(sp, int64(2*len(got)))
			sp = tr.begin("containment_error", "metrics", parent)
			for q := range got {
				metrics.ContainmentError(got[q], want[q])
			}
			tr.end(sp, int64(len(got)))
		}
	}
	return time.Since(start), nil
}
