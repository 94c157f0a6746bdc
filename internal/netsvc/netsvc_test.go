package netsvc

import (
	"sync/atomic"
	"testing"
	"time"

	"lira/internal/basestation"
	"lira/internal/cqserver"
	"lira/internal/fmodel"
	"lira/internal/geo"
	"lira/internal/rng"
)

// fakeClock is an accelerated simulation clock shared by the server and
// the test's clients.
type fakeClock struct{ now atomic.Int64 } // milliseconds

func (f *fakeClock) Now() float64     { return float64(f.now.Load()) / 1000 }
func (f *fakeClock) Advance(ms int64) { f.now.Add(ms) }

func space() geo.Rect { return geo.Rect{MinX: 0, MinY: 0, MaxX: 2000, MaxY: 2000} }

// TestShardsAboveOneRejected pins the one-engine contract at the
// deployment surface: ServerConfig.Shards accepts 0 or 1, and any larger
// count fails the server start instead of silently running unsharded.
func TestShardsAboveOneRejected(t *testing.T) {
	cfg := ServerConfig{Core: coreConfig(16), EvalEvery: time.Hour}
	for _, shards := range []int{0, 1} {
		cfg.Shards = shards
		s, err := Listen("127.0.0.1:0", cfg)
		if err != nil {
			t.Fatalf("Shards=%d: %v", shards, err)
		}
		s.Close()
	}
	cfg.Shards = 2
	if s, err := Listen("127.0.0.1:0", cfg); err == nil {
		s.Close()
		t.Fatal("Shards=2 accepted; want an error")
	}
}

func startServer(t *testing.T, clk Clock, z float64) *Server {
	t.Helper()
	s, err := Listen("127.0.0.1:0", ServerConfig{
		Core: cqserver.Config{
			Space: space(),
			Nodes: 64,
			L:     13,
			Curve: fmodel.Hyperbolic(5, 100, 19),
		},
		Z:         z,
		EvalEvery: 20 * time.Millisecond,
		Clock:     clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestHelloDeliversAssignment(t *testing.T) {
	clk := &fakeClock{}
	s := startServer(t, clk.Now, 0.5)
	c, err := DialNode(s.Addr().String(), 1, geo.Point{X: 100, Y: 100}, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	deadline := time.Now().Add(3 * time.Second)
	for c.Station() < 0 {
		if time.Now().After(deadline) {
			t.Fatal("assignment never arrived")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestUpdateFlowAndQuery(t *testing.T) {
	clk := &fakeClock{}
	s := startServer(t, clk.Now, 1) // z=1: no shedding, updates at Δ⊢
	addr := s.Addr().String()

	node, err := DialNode(addr, 7, geo.Point{X: 500, Y: 500}, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	// First observation always transmits.
	if sent, err := node.Observe(geo.Point{X: 500, Y: 500}, geo.Vector{X: 10, Y: 0}, clk.Now()); err != nil || !sent {
		t.Fatalf("first observe: sent=%v err=%v", sent, err)
	}

	q, err := DialQuery(addr, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if _, err := q.Register(geo.NewRect(400, 400, 600, 600)); err != nil {
		t.Fatal(err)
	}

	// The registration reply must eventually include node 7 (the server
	// needs a background tick to drain the queued update first).
	deadline := time.Now().Add(3 * time.Second)
	for {
		select {
		case res, ok := <-q.Results():
			if !ok {
				t.Fatal("results channel closed")
			}
			for _, id := range res.Nodes {
				if id == 7 {
					return
				}
			}
		case <-time.After(50 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("query result never included node 7")
		}
	}
}

func TestSheddingOverNetwork(t *testing.T) {
	// Two fleets on the same server: a z=1 reference is impossible on one
	// server, so assert the absolute behavior instead — with z=0.4 and a
	// populated statistics grid, nodes in query-free space receive large
	// thresholds and transmit far fewer updates than wander requires at Δ⊢.
	clk := &fakeClock{}
	s := startServer(t, clk.Now, 0.4)
	addr := s.Addr().String()

	// Seed the statistics grid: many phantom nodes in the west, queries
	// in the east.
	r := rng.New(3)
	var pos []geo.Point
	var sp []float64
	for i := 0; i < 64; i++ {
		pos = append(pos, geo.Point{X: r.Range(0, 800), Y: r.Range(0, 2000)})
		sp = append(sp, 10)
	}
	s.Core().ObserveStatistics(pos, sp)
	s.Core().RegisterQueries([]geo.Rect{geo.NewRect(1500, 1500, 1900, 1900)})
	if err := s.Adapt(); err != nil {
		t.Fatal(err)
	}

	node, err := DialNode(addr, 3, geo.Point{X: 400, Y: 1000}, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	deadline := time.Now().Add(3 * time.Second)
	for node.Station() < 0 {
		if time.Now().After(deadline) {
			t.Fatal("assignment never arrived")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Drive a wandering node in the query-free west: speed drifts make
	// dead reckoning at Δ⊢=5 report every few seconds; with the shed
	// threshold it reports rarely.
	x, y := 400.0, 1000.0
	vx := 10.0
	sentCount := 0
	wander := rng.New(9)
	for step := 0; step < 200; step++ {
		clk.Advance(1000)
		vx += wander.Norm(0, 1.5)
		x += vx
		if x < 50 || x > 750 {
			vx = -vx
			x += 2 * vx
		}
		sent, err := node.Observe(geo.Point{X: x, Y: y}, geo.Vector{X: vx, Y: 0}, clk.Now())
		if err != nil {
			t.Fatal(err)
		}
		if sent {
			sentCount++
		}
	}
	// At Δ⊢=5 this trajectory reports ~every 2-4 s (50-100 updates); with
	// region-aware shedding in a query-free zone it must be far sparser.
	if sentCount > 40 {
		t.Errorf("query-free node sent %d updates in 200 s; expected strong suppression", sentCount)
	}
	if sentCount == 0 {
		t.Error("node must still be tracked (Δ is bounded by Δ⊣)")
	}
}

func TestHandoffOverNetwork(t *testing.T) {
	clk := &fakeClock{}
	s, err := Listen("127.0.0.1:0", ServerConfig{
		Core: cqserver.Config{
			Space: space(),
			Nodes: 8,
			L:     13,
			Curve: fmodel.Hyperbolic(5, 100, 19),
		},
		Stations: []basestation.Station{
			{ID: 0, Center: geo.Point{X: 500, Y: 1000}, Radius: 900},
			{ID: 1, Center: geo.Point{X: 1500, Y: 1000}, Radius: 900},
		},
		Z:         0.8,
		EvalEvery: 20 * time.Millisecond,
		Clock:     clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	node, err := DialNode(s.Addr().String(), 2, geo.Point{X: 400, Y: 1000}, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	deadline := time.Now().Add(3 * time.Second)
	for node.Station() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("initial station = %d, want 0", node.Station())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Drive the node east across the coverage boundary. Reporting zero
	// velocity makes each 50 m hop exceed any throttler in [Δ⊢, Δ⊣], so
	// every hop transmits an update and the server's hand-off check runs.
	x := 400.0
	for step := 0; step < 40 && node.Station() != 1; step++ {
		clk.Advance(1000)
		x += 50
		if _, err := node.Observe(geo.Point{X: x, Y: 1000}, geo.Vector{}, clk.Now()); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	deadline = time.Now().Add(3 * time.Second)
	for node.Station() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("hand-off to station 1 never happened (station=%d)", node.Station())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	clk := &fakeClock{}
	s := startServer(t, clk.Now, 0.5)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestDialNodeValidation(t *testing.T) {
	clk := &fakeClock{}
	s := startServer(t, clk.Now, 0.5)
	if _, err := DialNode(s.Addr().String(), 1, geo.Point{}, 0); err == nil {
		t.Error("zero fallback should be rejected")
	}
}
