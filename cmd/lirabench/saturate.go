package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"lira/internal/cqserver"
	"lira/internal/engine"
	"lira/internal/fmodel"
	"lira/internal/geo"
	"lira/internal/motion"
	"lira/internal/rng"
	"lira/internal/wire"
)

// saturateStep is one rung of the offered-rate ramp: how hard the ingest
// path was pushed, what it actually sustained, and what that cost in
// tail latency and GC activity.
type saturateStep struct {
	OfferedPerSec  float64 `json:"offered_per_sec"`
	AchievedPerSec float64 `json:"achieved_per_sec"`
	// Efficiency is achieved/offered; the knee detector thresholds it.
	Efficiency    float64 `json:"efficiency"`
	P99EvaluateMS float64 `json:"p99_evaluate_ms"`
	Evals         int     `json:"evals"`
	Shed          int64   `json:"shed"`
	GCCycles      uint32  `json:"gc_cycles"`
	GCPauseMS     float64 `json:"gc_pause_ms"`
	HeapAllocMB   float64 `json:"heap_alloc_mb"`
}

// pathComparison is the honest speedup record: the pre-PR per-update
// ingest path (one frame per report, allocating ReadFrame, per-update
// decode) against the batched path (FrameReader + vectored zero-alloc
// decode), both driving the same engine on one core.
type pathComparison struct {
	PerUpdatePerSec float64 `json:"per_update_per_sec"`
	BatchPerSec     float64 `json:"batch_per_sec"`
	Speedup         float64 `json:"speedup"`
	Records         int     `json:"records"`
}

// saturateReport is the schema of the -saturatejson artifact
// (BENCH_PR6.json).
type saturateReport struct {
	Command    string         `json:"command"`
	Nodes      int            `json:"nodes"`
	BatchSize  int            `json:"batch_size"`
	SliceMS    float64        `json:"slice_ms"`
	NumCPU     int            `json:"num_cpu"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Steps      []saturateStep `json:"steps"`
	// Knee is the last step that sustained ≥95% of its offered rate: the
	// saturation throughput the deployment can honestly promise.
	Knee  *saturateStep  `json:"knee"`
	Paths pathComparison `json:"paths"`
}

// satEncoded holds the pre-encoded update stream both measurement modes
// replay: the same reports framed one way per path, so the comparison
// isolates the wire format and decode discipline.
type satEncoded struct {
	perUpdate []byte // stream of TypeUpdate frames
	batched   []byte // the same records as TypeUpdateBatch frames
	records   int
}

// encodeSatStream generates a deterministic drifting population and
// pre-encodes records update frames over it, batched at batchSize.
func encodeSatStream(nodes, records, batchSize int, seed uint64) *satEncoded {
	r := rng.New(seed)
	pos := make([]geo.Point, nodes)
	vel := make([]geo.Vector, nodes)
	for i := range pos {
		pos[i] = geo.Point{X: r.Range(0, 1000), Y: r.Range(0, 1000)}
		vel[i] = geo.Vector{X: r.Range(-10, 10), Y: r.Range(-10, 10)}
	}
	enc := &satEncoded{records: records}
	var batch wire.UpdateBatch
	t := 0.0
	for n := 0; n < records; n++ {
		id := n % nodes
		if id == 0 {
			t += 0.1
		}
		pos[id].X += vel[id].X * 0.1
		pos[id].Y += vel[id].Y * 0.1
		u := wire.Update{Node: uint32(id), Report: motion.Report{Pos: pos[id], Vel: vel[id], Time: t}}
		enc.perUpdate = wire.AppendUpdate(enc.perUpdate, u)
		batch.Append(u)
		if batch.Len() == batchSize || n == records-1 {
			enc.batched = wire.AppendUpdateBatch(enc.batched, &batch)
			batch.Reset()
		}
	}
	return enc
}

func newSatEngine(nodes int) (engine.Engine, error) {
	eng, err := cqserver.New(cqserver.Config{
		Space:     geo.Rect{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000},
		Nodes:     nodes,
		L:         13,
		QueueSize: 1 << 16,
		Curve:     fmodel.Hyperbolic(5, 100, 95),
	})
	if err != nil {
		return nil, err
	}
	eng.RegisterQueries([]geo.Rect{
		geo.NewRect(0, 0, 400, 400),
		geo.NewRect(300, 300, 700, 700),
		geo.NewRect(600, 100, 950, 500),
		geo.NewRect(100, 600, 500, 950),
	})
	return eng, nil
}

// runSaturate is the -saturate mode: ramp the offered update rate over
// fixed wall slices against a live engine — batched frames decoded on
// the measurement thread, evaluations at a steady cadence — and report
// throughput, p99 Evaluate latency, and GC behavior per step, then the
// single-core per-update-vs-batch path comparison.
func runSaturate(nodes, batchSize, steps int, baseRate float64, slice time.Duration, out string) error {
	enc := encodeSatStream(nodes, nodes*64, batchSize, 1)
	rep := saturateReport{
		Command: fmt.Sprintf("lirabench -saturate -nodes %d -satbase %.0f -satsteps %d -satslice %v",
			nodes, baseRate, steps, slice),
		Nodes:      nodes,
		BatchSize:  batchSize,
		SliceMS:    float64(slice) / float64(time.Millisecond),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}

	eng, err := newSatEngine(nodes)
	if err != nil {
		return err
	}
	simNow := 1.0
	warm := func() {
		// Warm the motion table, indexes, and result buffers so step 0
		// measures steady state, not first-touch growth.
		fr := wire.NewFrameReader(bytes.NewReader(enc.batched))
		var batch wire.UpdateBatch
		for {
			_, payload, err := fr.Next()
			if err != nil {
				break
			}
			if err := wire.DecodeUpdateBatchInto(&batch, payload); err != nil {
				break
			}
			eng.IngestShedOldestColumns(batch.Node, batch.X, batch.Y, batch.VX, batch.VY, batch.Time)
		}
		eng.Drain(-1)
		for i := 0; i < 3; i++ {
			eng.Evaluate(simNow)
			simNow += 0.1
		}
	}
	warm()

	offered := baseRate
	evalEvery := 20 * time.Millisecond
	for s := 0; s < steps; s++ {
		rd := bytes.NewReader(enc.batched)
		fr := wire.NewFrameReader(rd)
		var batch wire.UpdateBatch
		var lat []float64
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		shed0 := eng.Dropped()

		start := time.Now()
		deadline := start.Add(slice)
		nextEval := start.Add(evalEvery)
		pushed := 0
		for time.Now().Before(deadline) {
			// Pace in one-batch granules: sleep only while ahead of the
			// offered schedule, so a saturated step degrades to a tight
			// decode+ingest loop and measures capacity.
			_, payload, err := fr.Next()
			if err != nil {
				rd.Reset(enc.batched)
				fr = wire.NewFrameReader(rd)
				continue
			}
			if err := wire.DecodeUpdateBatchInto(&batch, payload); err != nil {
				return fmt.Errorf("saturate: decode: %w", err)
			}
			eng.IngestShedOldestColumns(batch.Node, batch.X, batch.Y, batch.VX, batch.VY, batch.Time)
			pushed += batch.Len()
			now := time.Now()
			if now.After(nextEval) {
				eng.Drain(-1)
				t0 := time.Now()
				eng.Evaluate(simNow)
				lat = append(lat, time.Since(t0).Seconds()*1000)
				simNow += 0.1
				nextEval = nextEval.Add(evalEvery)
			}
			ahead := time.Duration(float64(pushed)/offered*float64(time.Second)) - now.Sub(start)
			if ahead > time.Millisecond {
				time.Sleep(ahead)
			}
		}
		elapsed := time.Since(start).Seconds()
		eng.Drain(-1)
		runtime.ReadMemStats(&m1)
		step := saturateStep{
			OfferedPerSec:  offered,
			AchievedPerSec: float64(pushed) / elapsed,
			Evals:          len(lat),
			Shed:           eng.Dropped() - shed0,
			GCCycles:       m1.NumGC - m0.NumGC,
			GCPauseMS:      float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6,
			HeapAllocMB:    float64(m1.HeapAlloc) / (1 << 20),
		}
		step.Efficiency = step.AchievedPerSec / step.OfferedPerSec
		step.P99EvaluateMS = percentile(lat, 0.99)
		rep.Steps = append(rep.Steps, step)
		fmt.Fprintf(os.Stderr, "saturate: offered %.0f/s achieved %.0f/s (%.1f%%) p99 %.3fms gc %d\n",
			step.OfferedPerSec, step.AchievedPerSec, 100*step.Efficiency, step.P99EvaluateMS, step.GCCycles)
		offered *= 2
	}
	for i := range rep.Steps {
		if rep.Steps[i].Efficiency >= 0.95 {
			rep.Knee = &rep.Steps[i]
		}
	}

	paths, err := runPathComparison(nodes, enc)
	if err != nil {
		return err
	}
	rep.Paths = *paths

	var w io.Writer = os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	je := json.NewEncoder(w)
	je.SetIndent("", "  ")
	if err := je.Encode(&rep); err != nil {
		return err
	}
	if out != "" {
		fmt.Fprintf(os.Stderr, "saturate report written to %s\n", out)
	}
	return nil
}

// runPathComparison measures the sustained single-core ingest throughput
// of both wire disciplines over identical records: the pre-PR path
// (wire.ReadFrame's fresh payload buffer per frame + DecodeUpdate +
// one IngestShedOldest per frame) and the batched path (FrameReader's
// pooled buffers + DecodeUpdateBatchInto + columnar vectored ingest).
// Both loops drain periodically so the apply cost is included. Each
// path's rate is the fastest of its full passes — the least-interference
// estimate on a shared machine; both paths get the same treatment, so
// neither is favored.
func runPathComparison(nodes int, enc *satEncoded) (*pathComparison, error) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)

	const passes = 8
	drainEvery := 1 << 12

	perEng, err := newSatEngine(nodes)
	if err != nil {
		return nil, err
	}
	perSec := 0.0
	for p := 0; p < passes; p++ {
		start := time.Now()
		pushed := 0
		rd := bytes.NewReader(enc.perUpdate)
		for {
			typ, payload, err := wire.ReadFrame(rd)
			if err != nil {
				break
			}
			if typ != wire.TypeUpdate {
				return nil, fmt.Errorf("saturate: unexpected frame %v in per-update stream", typ)
			}
			u, err := wire.DecodeUpdate(payload)
			if err != nil {
				return nil, err
			}
			perEng.IngestShedOldest(cqserver.Update{Node: int(u.Node), Report: u.Report})
			if pushed++; pushed%drainEvery == 0 {
				perEng.Drain(-1)
			}
		}
		perEng.Drain(-1)
		if r := float64(pushed) / time.Since(start).Seconds(); r > perSec {
			perSec = r
		}
	}

	batchEng, err := newSatEngine(nodes)
	if err != nil {
		return nil, err
	}
	batchSec := 0.0
	var batch wire.UpdateBatch
	for p := 0; p < passes; p++ {
		start := time.Now()
		pushed := 0
		rd := bytes.NewReader(enc.batched)
		fr := wire.NewFrameReader(rd)
		for {
			_, payload, err := fr.Next()
			if err != nil {
				break
			}
			if err := wire.DecodeUpdateBatchInto(&batch, payload); err != nil {
				return nil, err
			}
			batchEng.IngestShedOldestColumns(batch.Node, batch.X, batch.Y, batch.VX, batch.VY, batch.Time)
			if pushed += batch.Len(); pushed%drainEvery < batch.Len() {
				batchEng.Drain(-1)
			}
		}
		batchEng.Drain(-1)
		if r := float64(pushed) / time.Since(start).Seconds(); r > batchSec {
			batchSec = r
		}
	}

	return &pathComparison{
		PerUpdatePerSec: perSec,
		BatchPerSec:     batchSec,
		Speedup:         batchSec / perSec,
		Records:         enc.records * passes,
	}, nil
}

func percentile(lat []float64, p float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	vals := append([]float64(nil), lat...)
	sort.Float64s(vals)
	return vals[int(p*float64(len(vals)-1))]
}
