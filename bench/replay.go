package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"lira/internal/admission"
	"lira/internal/basestation"
	"lira/internal/engine"
	"lira/internal/geo"
	"lira/internal/telemetry"
	"lira/internal/wire"
)

// serveReplay replays a recorded serving run in-process, as fast as the
// layers allow, through the calls netsvc makes in the order it makes
// them: per frame DecodeUpdateBatchInto → AdmitN → IngestShedOldestColumns;
// per evaluation period Observe → Drain → ObserveStatistics → (Adapt +
// NewDeployment) → Evaluate → AppendResult; per re-registration the
// RegisterQueries + Drain + Evaluate the server runs under its mutex.
type serveReplay struct {
	cfg serveConfig
	in  *serveInputs
	rec *recording
	tr  *tracer

	eng      engine.Engine
	hub      *telemetry.Hub
	adm      *admission.Controller
	stations []basestation.Station
	queries  []geo.Rect
	qids     []uint32
	batch    wire.UpdateBatch
	obsPos   []geo.Point
	obsSpd   []float64
	frameBuf []byte

	// Counts the traced run reports beside its spans.
	offered, admitted, shed int64
	rungMax                 admission.State
	queueWait               []weighted // per frame: schedule ms to the next drain, records
	assignBytes, assigns    int
	resultFrames            int
}

func newServeReplay(in *serveInputs, rec *recording, tr *tracer) (*serveReplay, error) {
	cfg := in.cfg
	p := &serveReplay{cfg: cfg, in: in, rec: rec, tr: tr, hub: telemetry.NewHub(0)}
	sc := cfg.serverConfig(in.space, p.hub)
	sc.Core.Telemetry = p.hub
	eng, err := engine.New(sc.Core, 1)
	if err != nil {
		return nil, err
	}
	p.eng = eng
	if p.adm, err = admission.New(admission.Config{Actions: eng, Telemetry: p.hub}); err != nil {
		return nil, err
	}
	eng.ControlPlane().SetZClamp(p.adm.ClampZ)
	space := in.space
	p.stations = []basestation.Station{{ID: 0, Center: space.Center(), Radius: space.Width() + space.Height()}}
	for _, q := range in.registrations() {
		p.queries = append(p.queries, q.Rect)
		p.qids = append(p.qids, q.ID)
	}
	p.queries = append(p.queries, cfg.probeRect())
	p.qids = append(p.qids, cfg.sentinelQuery())
	eng.RegisterQueries(p.queries)
	return p, nil
}

// run replays the recording under one root span and returns its wall time.
func (p *serveReplay) run() (time.Duration, error) {
	start := time.Now()
	root := p.tr.begin("replay", "bench", -1)
	if err := p.adapt(root); err != nil {
		return 0, err
	}
	frames := p.rec.frames
	// Warm-up: the first reports, one tick to observe them, one adaptation.
	for _, f := range frames[:p.rec.warm] {
		if err := p.frame(root, f, 0); err != nil {
			return 0, err
		}
	}
	if err := p.tick(root, p.rec.base, false); err != nil {
		return 0, err
	}
	if err := p.adapt(root); err != nil {
		return 0, err
	}
	period := p.cfg.evalEvery
	nextTick, nextAdapt := period, p.cfg.adaptEvery
	ri := 0
	flush := func(until float64) error {
		for {
			regDue := math.Inf(1)
			if ri < len(p.rec.regs) {
				regDue = p.rec.regs[ri].Due
			}
			if nextTick > until && regDue > until {
				return nil
			}
			if regDue < nextTick {
				p.register(root, p.rec.regs[ri])
				ri++
				continue
			}
			adapt := nextTick >= nextAdapt
			if adapt {
				nextAdapt += p.cfg.adaptEvery
			}
			if err := p.tick(root, p.rec.base+nextTick, adapt); err != nil {
				return err
			}
			nextTick += period
		}
	}
	for _, f := range frames[p.rec.warm:] {
		if err := flush(f.due); err != nil {
			return 0, err
		}
		if err := p.frame(root, f, nextTick-f.due); err != nil {
			return 0, err
		}
	}
	if err := flush(nextTick); err != nil {
		return 0, err
	}
	p.tr.end(root, int64(len(frames)))
	return time.Since(start), nil
}

// frame handles one update-batch frame; wait is how long (schedule
// seconds) its records sit in the queue before the next drain.
func (p *serveReplay) frame(root int, f recFrame, wait float64) error {
	sp := p.tr.begin("decode", "wire", root)
	err := wire.DecodeUpdateBatchInto(&p.batch, f.frame[frameHeaderLen:])
	n := p.batch.Len()
	p.tr.end(sp, int64(n))
	if err != nil {
		return err
	}
	b := &p.batch
	sp = p.tr.begin("admitn", "admission", root)
	admit := p.adm.AdmitN(n)
	p.tr.end(sp, int64(n))
	p.offered += int64(n)
	p.admitted += int64(admit)
	if admit == 0 {
		return nil
	}
	off := n - admit
	sp = p.tr.begin("ingest", "engine", root)
	shed := p.eng.IngestShedOldestColumns(b.Node[off:], b.X[off:], b.Y[off:], b.VX[off:], b.VY[off:], b.Time[off:])
	p.tr.end(sp, int64(admit))
	p.shed += int64(shed)
	p.queueWait = append(p.queueWait, weighted{1000 * wait, admit})
	return nil
}

// tick is one background period of the server at time now.
func (p *serveReplay) tick(root int, now float64, adapt bool) error {
	t := p.tr.begin("tick", "netsvc", root)
	sp := p.tr.begin("observe", "admission", t)
	var sig admission.Signals
	if c := p.eng.QueueCap(); c > 0 {
		sig.QueueFrac = float64(p.eng.QueueLen()) / float64(c)
	}
	sig.Goroutines = float64(runtime.NumGoroutine())
	sig.EvalP99 = p.hub.Registry.Histogram("lira_evaluate_seconds", nil).Quantile(0.99)
	before := p.adm.State()
	state := p.adm.Observe(sig)
	p.tr.end(sp, 1)
	p.rungMax = max(p.rungMax, state)
	sp = p.tr.begin("drain", "engine", t)
	drained := p.eng.Drain(-1)
	p.tr.end(sp, int64(drained))
	sp = p.tr.begin("observe_statistics", "statgrid", t)
	p.observeStats(now)
	p.tr.end(sp, int64(len(p.obsPos)))
	if adapt || state != before {
		if err := p.adapt(t); err != nil {
			return err
		}
	}
	sp = p.tr.begin("evaluate", "engine", t)
	results := p.eng.Evaluate(now)
	p.tr.end(sp, int64(len(results)))
	sp = p.tr.begin("append_result", "wire", t)
	for i, ids := range results {
		p.resultFrame(p.qids[i], ids)
	}
	p.tr.end(sp, int64(len(results)))
	p.tr.end(t, 1)
	return nil
}

// observeStats mirrors the server's statistics refresh: predicted,
// clamped positions and reported speeds of every known node.
func (p *serveReplay) observeStats(now float64) {
	table := p.eng.Table()
	p.obsPos, p.obsSpd = p.obsPos[:0], p.obsSpd[:0]
	for i := 0; i < table.Len(); i++ {
		rep, ok := table.Report(i)
		if !ok {
			continue
		}
		p.obsPos = append(p.obsPos, p.in.space.ClampPoint(rep.Predict(now)))
		p.obsSpd = append(p.obsSpd, rep.Vel.Len())
	}
	if len(p.obsPos) > 0 {
		p.eng.ObserveStatistics(p.obsPos, p.obsSpd)
	}
}

// adapt re-runs the adaptation and builds the station broadcasts.
func (p *serveReplay) adapt(parent int) error {
	sp := p.tr.begin("adapt", "controlplane", parent)
	ad, err := p.eng.Adapt(serveZ)
	p.tr.end(sp, 1)
	if err != nil {
		return err
	}
	sp = p.tr.begin("new_deployment", "basestation", parent)
	deploy, err := basestation.NewDeployment(p.stations, ad.Partitioning, ad.Deltas)
	p.tr.end(sp, int64(len(ad.Deltas)))
	if err != nil {
		return err
	}
	sp = p.tr.begin("append_assignment", "wire", parent)
	for i, a := range deploy.Assignments {
		wa := wire.Assignment{Station: uint32(i), DefaultDelta: a.DefaultDelta}
		for j, r := range a.Regions {
			wa.Entries = append(wa.Entries, wire.EntryFromRect(r, a.Deltas[j]))
		}
		p.frameBuf = wire.AppendAssignment(p.frameBuf[:0], wa)
		p.assignBytes += len(p.frameBuf) - frameHeaderLen
		p.assigns++
	}
	p.tr.end(sp, int64(len(deploy.Assignments)))
	return nil
}

// register replays one re-registration: the new query set, then the full
// drain and evaluation the server runs to answer it.
func (p *serveReplay) register(root int, rr reregistration) {
	sp := p.tr.begin("register", "netsvc", root)
	idx := -1
	for i, id := range p.qids {
		if id == rr.ID {
			idx = i
		}
	}
	p.queries[idx] = rr.Rect
	p.eng.RegisterQueries(p.queries)
	now := p.rec.base + rr.Due
	d := p.tr.begin("drain", "engine", sp)
	drained := p.eng.Drain(-1)
	p.tr.end(d, int64(drained))
	e := p.tr.begin("evaluate", "engine", sp)
	results := p.eng.Evaluate(now)
	p.tr.end(e, int64(len(results)))
	w := p.tr.begin("append_result", "wire", sp)
	p.resultFrame(rr.ID, results[idx])
	p.tr.end(w, 1)
	p.tr.end(sp, 1)
}

func (p *serveReplay) resultFrame(id uint32, ids []int) {
	res := wire.Result{ID: id, Nodes: make([]uint32, len(ids))}
	for i, n := range ids {
		res.Nodes[i] = uint32(n)
	}
	p.frameBuf = wire.AppendResult(p.frameBuf[:0], res)
	p.resultFrames++
}

// histMeanMS returns a telemetry histogram's mean in milliseconds.
func histMeanMS(hub *telemetry.Hub, name string) float64 {
	h := hub.Registry.Histogram(name, nil)
	if h.Count() == 0 {
		return 0
	}
	return 1000 * h.Sum() / float64(h.Count())
}

// nsPer returns d in nanoseconds per item (0 without items).
func nsPer(d time.Duration, items int64) float64 {
	if items == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(items)
}

func frac(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// replayServe runs the live workload once to record its input, replays
// it untraced and then traced, and reports the per-layer metrics.
func replayServe(rep *report, cfg serveConfig, seed uint64, secs float64) (*tracer, error) {
	res, err := runServe(cfg, seed, secs, true)
	if err != nil {
		return nil, err
	}
	in, err := newServeInputs(cfg, seed, secs)
	if err != nil {
		return nil, err
	}
	replay := func(tr *tracer) (*serveReplay, time.Duration, error) {
		p, err := newServeReplay(in, res.rec, tr)
		if err != nil {
			return nil, 0, err
		}
		wall, err := p.run()
		return p, wall, err
	}
	p, wall, untraced, err := bracket(replay)
	if err != nil {
		return nil, err
	}
	tr := p.tr
	setReplayMetrics(rep, tr, wall, untraced)

	dec, recs, _ := tr.total("decode")
	rep.set("wire.decode_ns_per_rec", nsPer(dec, recs), "ns")
	enc, _, _ := tr.total("append_result")
	rep.set("wire.result_encode_ns", nsPer(enc, int64(p.resultFrames)), "ns")
	rep.set("wire.assignment_bytes", float64(p.assignBytes)/float64(max(1, p.assigns)), "B")
	adm, _, admCalls := tr.total("admitn")
	rep.set("admission.admitn_ns", nsPer(adm, int64(admCalls)), "ns")
	rep.set("admission.admitted_frac", frac(p.admitted, p.offered), "ratio")
	rep.set("admission.rung_max", float64(p.rungMax), "rung")
	rep.set("admission.transitions", float64(p.adm.Transitions()), "count")
	ing, ingRecs, _ := tr.total("ingest")
	rep.set("engine.ingest_ns_per_rec", nsPer(ing, ingRecs), "ns")
	rep.set("engine.ring_shed_frac", frac(p.shed, p.admitted), "ratio")
	rep.set("engine.queue_wait_ms_p99", weightedQuantile(p.queueWait, 0.99), "ms")
	dr, drRecs, _ := tr.total("drain")
	rep.set("engine.drain_ns_per_rec", nsPer(dr, drRecs), "ns")
	st, _, stCalls := tr.total("observe_statistics")
	rep.set("statgrid.observe_ms", ms(st)/float64(max(1, stCalls)), "ms")
	ev := summarize(tr.durations("evaluate"))
	evD, evQ, evCalls := tr.total("evaluate")
	rep.set("engine.evaluate_ms_p50", ev.P50, "ms")
	rep.set("engine.evaluate_ms_p99", ev.Tail, "ms")
	rep.set("engine.evaluate_ns_per_query", nsPer(evD, evQ), "ns")
	rep.set("engine.evaluate_calls", float64(evCalls), "count")
	rep.set("netsvc.tick_hold_ms_p99", summarize(tr.durations("tick")).Tail, "ms")
	regD, _, regs := tr.total("register")
	rep.set("netsvc.register_ms", ms(regD)/float64(max(1, regs)), "ms")
	rep.set("netsvc.result_frames", float64(p.resultFrames), "count")
	ad, _, adapts := tr.total("adapt")
	rep.set("controlplane.adapt_ms", ms(ad)/float64(max(1, adapts)), "ms")
	rep.set("controlplane.gridreduce_ms", histMeanMS(p.hub, "lira_gridreduce_seconds"), "ms")
	rep.set("controlplane.greedyincrement_ms", histMeanMS(p.hub, "lira_set_throttlers_seconds"), "ms")
	rep.set("controlplane.adapts", float64(adapts), "count")
	dep, _, deps := tr.total("new_deployment")
	rep.set("basestation.deploy_ms", ms(dep)/float64(max(1, deps)), "ms")
	rep.set("gen.late_p99_ms", res.gen.late.Tail, "ms")
	rep.set("gen.busy_frac", res.gen.busy, "ratio")
	rep.set("gen.sent_rps", res.gen.sentRPS, "1/s")
	rep.note("gen.behind", res.gen.behind, "")
	rep.note("replay.frames", len(res.rec.frames), "")
	rep.Attempted = len(res.rec.frames)
	return tr, nil
}

// layers are the modules a traced run charges time to; "bench" is the
// benchmark's own loop between calls.
var layers = []string{"bench", "wire", "admission", "engine", "statgrid", "netsvc",
	"controlplane", "basestation", "trace", "mobilenode", "experiment", "metrics"}

// bracket runs a replay once to warm up, then untraced, traced, and
// untraced again, and returns the traced run with its wall time and the
// mean of the two untraced ones, so neither warm-up nor drift biases the
// tracing overhead.
func bracket[T any](replay func(*tracer) (T, time.Duration, error)) (T, time.Duration, time.Duration, error) {
	var traced T
	var wall, untraced time.Duration
	for i, on := range []bool{false, false, true, false} {
		got, d, err := replay(newTracer(on))
		if err != nil {
			return traced, 0, 0, err
		}
		switch {
		case i == 0: // warm-up
		case on:
			traced, wall = got, d
		default:
			untraced += d / 2
		}
	}
	return traced, wall, untraced, nil
}

// setReplayMetrics reports each layer's self time, calls, and items; the
// share of the traced root spans those self times account for; and the
// traced-vs-untraced wall time of the replay.
func setReplayMetrics(rep *report, tr *tracer, wall, untraced time.Duration) {
	var self, roots time.Duration
	for layer, ls := range tr.byLayer() {
		rep.set("self_ms."+layer, ms(ls.Self), "ms")
		rep.set("calls."+layer, float64(ls.Calls), "count")
		rep.set("items."+layer, float64(ls.Items), "count")
		self += ls.Self
	}
	for _, s := range tr.spans {
		if s.Parent < 0 {
			roots += time.Duration(s.End - s.Start)
		}
	}
	rep.set("replay.wall_ms", ms(wall), "ms")
	rep.set("replay.untraced_ms", ms(untraced), "ms")
	rep.set("replay.overhead_frac", float64(wall-untraced)/float64(untraced), "ratio")
	rep.set("replay.self_cover_frac", float64(self)/float64(roots), "ratio")
	rep.set("replay.spans", float64(len(tr.spans)), "count")
}

// perLayerMetrics is every metric a traced run reports, with its unit. A
// workload that does not exercise a layer reports 0 for it.
var perLayerMetrics = func() [][2]string {
	m := [][2]string{
		{"wire.decode_ns_per_rec", "ns"}, {"wire.result_encode_ns", "ns"}, {"wire.assignment_bytes", "B"},
		{"admission.admitn_ns", "ns"}, {"admission.admitted_frac", "ratio"}, {"admission.rung_max", "rung"}, {"admission.transitions", "count"},
		{"engine.ingest_ns_per_rec", "ns"}, {"engine.ring_shed_frac", "ratio"}, {"engine.queue_wait_ms_p99", "ms"}, {"engine.drain_ns_per_rec", "ns"},
		{"statgrid.observe_ms", "ms"},
		{"engine.evaluate_ms_p50", "ms"}, {"engine.evaluate_ms_p99", "ms"}, {"engine.evaluate_ns_per_query", "ns"}, {"engine.evaluate_calls", "count"},
		{"netsvc.tick_hold_ms_p99", "ms"}, {"netsvc.register_ms", "ms"}, {"netsvc.result_frames", "count"},
		{"controlplane.adapt_ms", "ms"}, {"controlplane.gridreduce_ms", "ms"}, {"controlplane.greedyincrement_ms", "ms"}, {"controlplane.adapts", "count"},
		{"basestation.deploy_ms", "ms"},
		{"trace.step_ns_per_car", "ns"},
		{"mobilenode.observe_ns", "ns"}, {"mobilenode.sent_frac", "ratio"},
		{"experiment.cell_s_p50", "s"}, {"experiment.cells", "count"}, {"metrics.eval_ns_per_query", "ns"},
		{"gen.late_p99_ms", "ms"}, {"gen.busy_frac", "ratio"}, {"gen.sent_rps", "1/s"},
		{"replay.wall_ms", "ms"}, {"replay.untraced_ms", "ms"}, {"replay.overhead_frac", "ratio"},
		{"replay.self_cover_frac", "ratio"}, {"replay.spans", "count"},
	}
	for _, l := range layers {
		m = append(m, [2]string{"self_ms." + l, "ms"}, [2]string{"calls." + l, "count"}, [2]string{"items." + l, "count"})
	}
	return m
}()

// fillLayerMetrics sets every per-layer metric the run did not measure to
// 0, so each traced run reports the same set.
func fillLayerMetrics(rep *report) {
	for _, m := range perLayerMetrics {
		if _, ok := rep.Metrics[m[0]]; !ok {
			rep.set(m[0], 0, m[1])
		}
	}
}

// runTraced dispatches the traced per-layer run and writes its spans to
// .bench_build/spans-<workload>-<seed>.jsonl.
func runTraced(rep *report, workload string, seed uint64, secs float64) error {
	var tr *tracer
	var err error
	switch workload {
	case "serve-steady":
		tr, err = replayServe(rep, steadyConfig, seed, secs)
	case "serve-flash":
		tr, err = replayServe(rep, flashConfig, seed, secs)
	case "measured-sweep":
		tr, err = replaySweep(rep, seed)
	default:
		return fmt.Errorf("unknown workload %q", workload)
	}
	if err != nil {
		return err
	}
	fillLayerMetrics(rep)
	out := fmt.Sprintf(".bench_build/spans-%s-%d.jsonl", workload, seed)
	rep.note("spans_file", out, "")
	return tr.write(out)
}
