package trace

import (
	"math"
	"testing"

	"lira/internal/geo"
	"lira/internal/roadnet"
)

func testNet() *roadnet.Network {
	cfg := roadnet.DefaultConfig()
	cfg.Side = 4000
	cfg.GridStep = 250
	cfg.Centers = 2
	cfg.CenterRadius = 800
	return roadnet.Generate(cfg)
}

func TestSourceDeterministicAndResettable(t *testing.T) {
	net := testNet()
	cfg := Config{N: 200, Seed: 3}
	a := NewSource(net, cfg)
	b := NewSource(net, cfg)
	for tick := 0; tick < 50; tick++ {
		pa, pb := a.Positions(), b.Positions()
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("tick %d car %d: %v vs %v", tick, i, pa[i], pb[i])
			}
		}
		a.Step(1)
		b.Step(1)
	}
	// Record the trajectory of car 0, reset, and replay.
	a.Reset()
	if a.Tick() != 0 {
		t.Fatalf("Tick after Reset = %d", a.Tick())
	}
	var replay []geo.Point
	for tick := 0; tick < 50; tick++ {
		replay = append(replay, a.Positions()[0])
		a.Step(1)
	}
	a.Reset()
	for tick := 0; tick < 50; tick++ {
		if a.Positions()[0] != replay[tick] {
			t.Fatalf("replay diverged at tick %d", tick)
		}
		a.Step(1)
	}
}

func TestCarsMove(t *testing.T) {
	net := testNet()
	s := NewSource(net, Config{N: 100, Seed: 4})
	start := append([]geo.Point(nil), s.Positions()...)
	for i := 0; i < 30; i++ {
		s.Step(1)
	}
	moved := 0
	for i, p := range s.Positions() {
		if p.Dist(start[i]) > 1 {
			moved++
		}
	}
	if moved < 95 {
		t.Errorf("only %d/100 cars moved after 30 s", moved)
	}
}

func TestSpeedsArePlausible(t *testing.T) {
	net := testNet()
	s := NewSource(net, Config{N: 500, Seed: 5})
	// Displacement over one tick must not exceed the fastest class speed
	// with the maximum jitter factor.
	maxSpeed := roadnet.Expressway.Speed() * 1.5
	prev := append([]geo.Point(nil), s.Positions()...)
	for tick := 0; tick < 20; tick++ {
		s.Step(1)
		for i, p := range s.Positions() {
			d := p.Dist(prev[i])
			if d > maxSpeed+1e-6 {
				t.Fatalf("tick %d car %d jumped %.1f m in 1 s", tick, i, d)
			}
			prev[i] = p
		}
	}
}

func TestSpeedAccessor(t *testing.T) {
	net := testNet()
	s := NewSource(net, Config{N: 50, Seed: 6})
	for i := 0; i < 50; i++ {
		sp := s.Speed(i)
		if sp < roadnet.Collector.Speed()*0.5-1e-9 || sp > roadnet.Expressway.Speed()*1.5+1e-9 {
			t.Errorf("car %d speed %.1f outside class envelope", i, sp)
		}
		v := s.Velocities()[i]
		if math.Abs(v.Len()-sp) > 1e-9 {
			t.Errorf("car %d |velocity| %.2f != Speed %.2f", i, v.Len(), sp)
		}
	}
}

func TestPositionsStayNearSpace(t *testing.T) {
	net := testNet()
	s := NewSource(net, Config{N: 300, Seed: 7})
	bounds := net.Space
	for tick := 0; tick < 120; tick++ {
		s.Step(1)
	}
	for i, p := range s.Positions() {
		if p.X < bounds.MinX-200 || p.X > bounds.MaxX+200 ||
			p.Y < bounds.MinY-200 || p.Y > bounds.MaxY+200 {
			t.Fatalf("car %d escaped the space: %v", i, p)
		}
	}
}

func TestDensityFollowsVolume(t *testing.T) {
	// Cars should cluster where traffic volume is high: the densest
	// quadrant should hold noticeably more than a quarter of the cars.
	net := testNet()
	s := NewSource(net, Config{N: 4000, Seed: 8})
	for tick := 0; tick < 60; tick++ {
		s.Step(1)
	}
	half := net.Space.MaxX / 2
	var quad [4]int
	for _, p := range s.Positions() {
		q := 0
		if p.X >= half {
			q |= 1
		}
		if p.Y >= half {
			q |= 2
		}
		quad[q]++
	}
	max := 0
	for _, c := range quad {
		if c > max {
			max = c
		}
	}
	if float64(max)/4000 < 0.3 {
		t.Errorf("node density too uniform: max quadrant share %.2f", float64(max)/4000)
	}
}

func TestNewSourcePanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewSource with N=0 should panic")
		}
	}()
	NewSource(testNet(), Config{N: 0})
}

// TestSetNetworkDeterministic: swapping in a closure clone mid-run is
// deterministic (two runs swapping at the same tick produce identical
// trajectories) and actually diverts traffic relative to an unswapped run.
func TestSetNetworkDeterministic(t *testing.T) {
	net := roadnet.Generate(roadnet.Config{Seed: 4})
	closed := net.WithClosures(net.TopVolumeEdges(8))
	cfg := Config{N: 200, Seed: 9}

	run := func(swap bool) []geo.Point {
		s := NewSource(net, cfg)
		for tick := 0; tick < 60; tick++ {
			if swap && tick == 20 {
				s.SetNetwork(closed)
			}
			s.Step(5)
		}
		out := make([]geo.Point, s.N())
		copy(out, s.Positions())
		return out
	}

	a, b := run(true), run(true)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("car %d diverged between identical swapped runs: %v vs %v", i, a[i], b[i])
		}
	}
	base := run(false)
	diverged := 0
	for i := range a {
		if a[i] != base[i] {
			diverged++
		}
	}
	if diverged == 0 {
		t.Error("closing the 8 busiest roads diverted no car at all")
	}
}

// BenchmarkSourceStep times one tick of 1500 cars; ns/op divided by 1500
// is the per-car step cost.
func BenchmarkSourceStep(b *testing.B) {
	s := NewSource(testNet(), Config{N: 1500, Seed: 2})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step(1)
	}
}
