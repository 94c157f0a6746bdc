package engine_test

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"lira/internal/cqindex"
	"lira/internal/cqserver"
	"lira/internal/engine"
	"lira/internal/geo"
	"lira/internal/motion"
	"lira/internal/rng"
	"lira/internal/wire"
)

// TestBatchedWirePathMatchesDirect extends the differential matrix to the
// vectored wire path: for each seed, a reference engine
// ingests quantized updates directly while a candidate engine receives
// the same updates through AppendUpdateBatch → DecodeUpdateBatchInto.
// Subtest names keep the k=1 (shard count) suffix they had when a second
// engine ran beside this one, so test IDs stay stable.
// The wire's fixed-point scales are powers of two, so quantize → encode →
// decode is an exact identity — query results, z, and the Δᵢ table must
// be byte-identical tick for tick.
func TestBatchedWirePathMatchesDirect(t *testing.T) {
	const nodes, ticks = 120, 20
	for _, seed := range []uint64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d/k=1", seed), func(t *testing.T) {
			cfg := baseConfig()
			ref, err := engine.New(cfg, 1)
			if err != nil {
				t.Fatal(err)
			}
			cand, err := engine.New(cfg, 1)
			if err != nil {
				t.Fatal(err)
			}
			qs := testQueries(rng.New(seed).Split(99))
			ref.RegisterQueries(qs)
			cand.RegisterQueries(qs)
			w := newWorkload(seed, nodes)
			var batch, decoded wire.UpdateBatch
			var frame []byte
			for tick := 1; tick <= ticks; tick++ {
				now := float64(tick)
				batch.Reset()
				for _, u := range w.step(now) {
					qu := cqserver.Update{Node: u.Node, Report: wire.QuantizeReport(u.Report)}
					if !ref.Ingest(qu) {
						t.Fatal("reference overflow in no-overflow regime")
					}
					batch.Append(wire.Update{Node: uint32(u.Node), Report: u.Report})
				}
				frame = wire.AppendUpdateBatch(frame[:0], &batch)
				typ, payload, err := wire.ReadFrame(bytes.NewReader(frame))
				if err != nil || typ != wire.TypeUpdateBatch {
					t.Fatalf("tick %d: reread frame: type %v err %v", tick, typ, err)
				}
				if err := wire.DecodeUpdateBatchInto(&decoded, payload); err != nil {
					t.Fatalf("tick %d: decode: %v", tick, err)
				}
				if decoded.Len() != batch.Len() {
					t.Fatalf("tick %d: decoded %d records, sent %d", tick, decoded.Len(), batch.Len())
				}
				// Admit through the vectored columnar path — the exact
				// path the batched server and the saturation benchmark
				// drive — and cross-check the shed accounting.
				if shed := cand.IngestShedOldestColumns(
					decoded.Node, decoded.X, decoded.Y, decoded.VX, decoded.VY, decoded.Time); shed != 0 {
					t.Fatalf("tick %d: candidate shed %d in no-overflow regime", tick, shed)
				}
				ref.Drain(-1)
				cand.Drain(-1)
				ref.ObserveStatistics(w.pos, w.speeds)
				cand.ObserveStatistics(w.pos, w.speeds)
				if !equalResults(ref.Evaluate(now), cand.Evaluate(now)) {
					t.Fatalf("tick %d: query results diverged across the wire path", tick)
				}
			}
			ra, err := ref.Adapt(0.5)
			if err != nil {
				t.Fatal(err)
			}
			ca, err := cand.Adapt(0.5)
			if err != nil {
				t.Fatal(err)
			}
			if ra.Z != ca.Z {
				t.Fatalf("z diverged: direct %v, wire %v", ra.Z, ca.Z)
			}
			if len(ra.Deltas) != len(ca.Deltas) {
				t.Fatalf("region count diverged: %d vs %d", len(ra.Deltas), len(ca.Deltas))
			}
			for i := range ra.Deltas {
				if ra.Deltas[i] != ca.Deltas[i] {
					t.Fatalf("Δ[%d] diverged: direct %v, wire %v", i, ra.Deltas[i], ca.Deltas[i])
				}
			}
		})
	}
}

// aosRef is the pre-SoA evaluator, reconstructed locally: per-node
// motion.Report structs, a wholesale-rebuilt grid, callback-driven scans,
// and a per-query sort — exactly the layout the resident columns
// replaced. It is the differential oracle proving the SoA refactor
// changed no result bit.
type aosRef struct {
	space     geo.Rect
	reports   []motion.Report
	known     []bool
	predicted []geo.Point
	active    []bool
	index     *cqindex.Grid
	queries   []geo.Rect
}

func newAosRef(cfg cqserver.Config, qs []geo.Rect) *aosRef {
	return &aosRef{
		space:     cfg.Space,
		reports:   make([]motion.Report, cfg.Nodes),
		known:     make([]bool, cfg.Nodes),
		predicted: make([]geo.Point, cfg.Nodes),
		active:    make([]bool, cfg.Nodes),
		index:     cqindex.NewGrid(cfg.Space, 64), // cqserver's IndexCells default
		queries:   qs,
	}
}

func (a *aosRef) apply(u cqserver.Update) {
	a.reports[u.Node] = u.Report
	a.known[u.Node] = true
}

func (a *aosRef) evaluate(now float64) [][]int {
	for i := range a.reports {
		a.active[i] = a.known[i]
		if a.known[i] {
			a.predicted[i] = a.space.ClampPoint(a.reports[i].Predict(now))
		}
	}
	a.index.Rebuild(a.predicted, a.active)
	out := make([][]int, len(a.queries))
	for qi, q := range a.queries {
		var ids []int
		a.index.Query(q, func(id int) { ids = append(ids, id) })
		sort.Ints(ids)
		out[qi] = ids
	}
	return out
}

// TestSoALayoutMatchesAoSReference runs the engine against the
// struct-of-reports oracle: same updates, same instants, byte-identical
// member lists. Report.Predict and Columns.Predict evaluate the same
// float64 expression, so even the boundary cases (a node exactly on a
// query edge after prediction) must agree bit for bit. Subtests keep
// their k=1 suffix, as above.
func TestSoALayoutMatchesAoSReference(t *testing.T) {
	const nodes, ticks = 120, 20
	for _, seed := range []uint64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d/k=1", seed), func(t *testing.T) {
			cfg := baseConfig()
			eng, err := engine.New(cfg, 1)
			if err != nil {
				t.Fatal(err)
			}
			qs := testQueries(rng.New(seed).Split(99))
			eng.RegisterQueries(qs)
			oracle := newAosRef(cfg, qs)
			w := newWorkload(seed, nodes)
			for tick := 1; tick <= ticks; tick++ {
				now := float64(tick)
				for _, u := range w.step(now) {
					if !eng.Ingest(u) {
						t.Fatal("overflow in no-overflow regime")
					}
					oracle.apply(u)
				}
				eng.Drain(-1)
				if !equalResults(eng.Evaluate(now), oracle.evaluate(now)) {
					t.Fatalf("tick %d: SoA engine diverged from AoS oracle", tick)
				}
			}
		})
	}
}
