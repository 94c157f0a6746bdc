package cqserver

import (
	"testing"

	"lira/internal/fmodel"
	"lira/internal/geo"
	"lira/internal/motion"
	"lira/internal/rng"
)

func space() geo.Rect { return geo.Rect{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000} }

func testServer(t *testing.T) *Server {
	t.Helper()
	s, err := New(Config{
		Space: space(),
		Nodes: 100,
		L:     13,
		Curve: fmodel.Hyperbolic(5, 100, 95),
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	c := fmodel.Hyperbolic(5, 100, 95)
	cases := []Config{
		{Space: geo.Rect{}, Nodes: 10, L: 4, Curve: c},
		{Space: space(), Nodes: 0, L: 4, Curve: c},
		{Space: space(), Nodes: 10, L: 0, Curve: c},
		{Space: space(), Nodes: 10, L: 4, Curve: nil},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestDefaultsApplied(t *testing.T) {
	s := testServer(t)
	if s.cfg.Alpha != 32 { // 2^⌊log2(10·√13)⌋ = 32
		t.Errorf("default alpha = %d, want 32", s.cfg.Alpha)
	}
	if s.Queue().Cap() != 1000 {
		t.Errorf("default queue size = %d", s.Queue().Cap())
	}
}

func TestIngestDrainApply(t *testing.T) {
	s := testServer(t)
	rep := motion.Report{Pos: geo.Point{X: 10, Y: 10}, Vel: geo.Vector{X: 1, Y: 0}, Time: 0}
	if !s.Ingest(Update{Node: 3, Report: rep}) {
		t.Fatal("Ingest failed on empty queue")
	}
	if s.Table().Known(3) {
		t.Error("queued update should not be applied yet")
	}
	if got := s.Drain(-1); got != 1 {
		t.Fatalf("Drain = %d", got)
	}
	p, ok := s.PredictedPosition(3, 5)
	if !ok || p != (geo.Point{X: 15, Y: 10}) {
		t.Errorf("PredictedPosition = (%v, %v)", p, ok)
	}
	s.Apply(Update{Node: 4, Report: rep})
	if !s.Table().Known(4) {
		t.Error("Apply should bypass the queue")
	}
	if s.Applied() != 2 {
		t.Errorf("Applied = %d", s.Applied())
	}
}

func TestDrainLimit(t *testing.T) {
	s := testServer(t)
	for i := 0; i < 10; i++ {
		s.Ingest(Update{Node: i, Report: motion.Report{}})
	}
	if got := s.Drain(4); got != 4 {
		t.Fatalf("Drain(4) = %d", got)
	}
	if s.Queue().Len() != 6 {
		t.Errorf("queue length = %d, want 6", s.Queue().Len())
	}
}

func TestEvaluate(t *testing.T) {
	s := testServer(t)
	s.RegisterQueries([]geo.Rect{
		geo.NewRect(0, 0, 200, 200),
		geo.NewRect(800, 800, 1000, 1000),
	})
	s.Apply(Update{Node: 0, Report: motion.Report{Pos: geo.Point{X: 50, Y: 50}}})
	s.Apply(Update{Node: 1, Report: motion.Report{Pos: geo.Point{X: 900, Y: 900}}})
	s.Apply(Update{Node: 2, Report: motion.Report{Pos: geo.Point{X: 100, Y: 100}, Vel: geo.Vector{X: 100, Y: 100}, Time: 0}})
	res := s.Evaluate(0)
	if len(res) != 2 {
		t.Fatalf("results for %d queries", len(res))
	}
	if len(res[0]) != 2 { // nodes 0 and 2
		t.Errorf("query 0 = %v", res[0])
	}
	if len(res[1]) != 1 || res[1][0] != 1 {
		t.Errorf("query 1 = %v", res[1])
	}
	// At t=8 node 2's predicted position (900, 900) moves to query 1.
	res = s.Evaluate(8)
	if len(res[0]) != 1 {
		t.Errorf("query 0 at t=8 = %v", res[0])
	}
	if len(res[1]) != 2 {
		t.Errorf("query 1 at t=8 = %v", res[1])
	}
}

func TestEvaluateIgnoresUnreportedNodes(t *testing.T) {
	s := testServer(t)
	s.RegisterQueries([]geo.Rect{space()})
	s.Apply(Update{Node: 7, Report: motion.Report{Pos: geo.Point{X: 1, Y: 1}}})
	res := s.Evaluate(0)
	if len(res[0]) != 1 || res[0][0] != 7 {
		t.Errorf("only node 7 has reported: %v", res[0])
	}
}

func TestAdaptProducesConsistentAssignment(t *testing.T) {
	s := testServer(t)
	r := rng.New(21)
	pos := make([]geo.Point, 100)
	speeds := make([]float64, 100)
	for i := range pos {
		pos[i] = geo.Point{X: r.Range(0, 500), Y: r.Range(0, 500)}
		speeds[i] = 15
	}
	s.ObserveStatistics(pos, speeds)
	s.RegisterQueries([]geo.Rect{geo.NewRect(600, 600, 900, 900)})
	ad, err := s.Adapt(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ad.Deltas) != len(ad.Partitioning.Regions) {
		t.Fatalf("deltas/regions mismatch: %d/%d", len(ad.Deltas), len(ad.Partitioning.Regions))
	}
	if len(ad.Partitioning.Regions) != 13 {
		t.Errorf("regions = %d, want 13", len(ad.Partitioning.Regions))
	}
	if !ad.BudgetMet {
		t.Error("z=0.5 should be achievable")
	}
	if ad.Elapsed <= 0 {
		t.Error("Elapsed should be measured")
	}
	// The node-dense query-free SW corner should be throttled harder than
	// the query area.
	var swDelta, queryDelta float64 = 0, 0
	for i, reg := range ad.Partitioning.Regions {
		c := reg.Area.Center()
		if c.X < 500 && c.Y < 500 && reg.N > 0 {
			if ad.Deltas[i] > swDelta {
				swDelta = ad.Deltas[i]
			}
		}
		if reg.M > 0 {
			if ad.Deltas[i] > queryDelta {
				queryDelta = ad.Deltas[i]
			}
		}
	}
	if swDelta <= queryDelta {
		t.Errorf("node-dense query-free Δ %v should exceed query-region Δ %v", swDelta, queryDelta)
	}
}

func TestAdaptAutoUsesThrotloop(t *testing.T) {
	s := testServer(t)
	pos := make([]geo.Point, 100)
	speeds := make([]float64, 100)
	r := rng.New(5)
	for i := range pos {
		pos[i] = geo.Point{X: r.Range(0, 1000), Y: r.Range(0, 1000)}
		speeds[i] = 10
	}
	s.ObserveStatistics(pos, speeds)
	// Simulate an overloaded window: many arrivals, slow service.
	for i := 0; i < 500; i++ {
		s.Ingest(Update{Node: i % 100, Report: motion.Report{}})
		s.Drain(1)
	}
	s.Queue().ObserveBusy(10) // 500 served in 10 busy-seconds → μ=50, λ=50/s over window
	ad, err := s.AdaptAuto(10)
	if err != nil {
		t.Fatal(err)
	}
	// ρ = 50/50 = 1 > target 0.999 ⇒ z must drop below 1.
	if ad.Z >= 1 {
		t.Errorf("overloaded window should shrink z, got %v", ad.Z)
	}
}

func TestHistoryCapture(t *testing.T) {
	s, err := New(Config{
		Space:          space(),
		Nodes:          10,
		L:              4,
		Curve:          fmodel.Hyperbolic(5, 100, 19),
		HistoryPerNode: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.History() == nil {
		t.Fatal("history enabled but nil")
	}
	s.Apply(Update{Node: 2, Report: motion.Report{Pos: geo.Point{X: 100, Y: 100}, Time: 5}})
	s.Ingest(Update{Node: 2, Report: motion.Report{Pos: geo.Point{X: 200, Y: 100}, Time: 15}})
	s.Drain(-1)
	p, ok := s.History().PositionAt(2, 10)
	if !ok || p != (geo.Point{X: 100, Y: 100}) {
		t.Errorf("historic position = (%v, %v)", p, ok)
	}
	snap := s.History().Snapshot(geo.NewRect(150, 50, 250, 150), 15)
	if len(snap) != 1 || snap[0] != 2 {
		t.Errorf("snapshot = %v", snap)
	}
	// History disabled by default.
	s2 := testServer(t)
	if s2.History() != nil {
		t.Error("history should be nil when disabled")
	}
}

func TestAccessors(t *testing.T) {
	s := testServer(t)
	if s.StatsGrid() == nil || s.Throttle() == nil {
		t.Error("accessors returned nil")
	}
	s.RegisterQueries([]geo.Rect{space()})
	if len(s.Queries()) != 1 {
		t.Errorf("Queries = %v", s.Queries())
	}
}
