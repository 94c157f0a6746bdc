package mobilenode

import (
	"testing"
	"testing/quick"

	"lira/internal/basestation"
	"lira/internal/geo"
	"lira/internal/rng"
)

// gridAssignment builds a k×k uniform assignment over [0,1000)² with
// deltas 5 + region index.
func gridAssignment(k int) *basestation.Assignment {
	a := &basestation.Assignment{DefaultDelta: 5}
	step := 1000.0 / float64(k)
	for j := 0; j < k; j++ {
		for i := 0; i < k; i++ {
			a.Regions = append(a.Regions, geo.Rect{
				MinX: float64(i) * step, MinY: float64(j) * step,
				MaxX: float64(i+1) * step, MaxY: float64(j+1) * step,
			})
			a.Deltas = append(a.Deltas, 5+float64(j*k+i))
		}
	}
	return a
}

func TestCompiledDeltaLookup(t *testing.T) {
	c := Compile(gridAssignment(4))
	if c.RegionCount() != 16 {
		t.Fatalf("RegionCount = %d", c.RegionCount())
	}
	cases := []struct {
		p    geo.Point
		want float64
	}{
		{geo.Point{X: 10, Y: 10}, 5},    // region 0
		{geo.Point{X: 600, Y: 100}, 7},  // region 2
		{geo.Point{X: 999, Y: 999}, 20}, // region 15
		{geo.Point{X: 250, Y: 0}, 6},    // region boundary x=250 → region 1
	}
	for _, tc := range cases {
		if got := c.DeltaAt(tc.p); got != tc.want {
			t.Errorf("DeltaAt(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

// clampDeltaAt is DeltaAt's cell lookup written with geo.Rect.ClampPoint;
// DeltaAt must return the same throttler for every point.
func clampDeltaAt(c *Compiled, p geo.Point) float64 {
	a := c.assignment
	if len(a.Regions) == 0 {
		return a.DefaultDelta
	}
	cp := c.bounds.ClampPoint(p)
	i := int((cp.X - c.bounds.MinX) / c.bounds.Width() * IndexSide)
	j := int((cp.Y - c.bounds.MinY) / c.bounds.Height() * IndexSide)
	i, j = min(i, IndexSide-1), min(j, IndexSide-1)
	for _, ri := range c.cells[j*IndexSide+i] {
		if a.Regions[ri].Contains(p) {
			return a.Deltas[ri]
		}
	}
	for _, ri := range c.cells[j*IndexSide+i] {
		if a.Regions[ri].ContainsClosed(p) {
			return a.Deltas[ri]
		}
	}
	return a.DefaultDelta
}

func TestDeltaAtMatchesClampedLookup(t *testing.T) {
	for _, k := range []int{1, 3, 7} {
		c := Compile(gridAssignment(k))
		r := rng.New(uint64(k))
		// Points inside, on, and outside the bounds, plus every cell edge.
		pts := []geo.Point{{X: -1, Y: -1}, {X: 1000, Y: 1000}, {X: 2000, Y: -50}, {X: 0, Y: 1000}}
		for e := 0; e <= IndexSide; e++ {
			v := 1000 * float64(e) / IndexSide
			pts = append(pts, geo.Point{X: v, Y: v}, geo.Point{X: v, Y: 1000 - v})
		}
		for n := 0; n < 2000; n++ {
			pts = append(pts, geo.Point{X: r.Range(-200, 1200), Y: r.Range(-200, 1200)})
		}
		for _, p := range pts {
			if got, want := c.DeltaAt(p), clampDeltaAt(c, p); got != want {
				t.Fatalf("k=%d DeltaAt(%v) = %v, clamped lookup gives %v", k, p, got, want)
			}
		}
	}
}

func BenchmarkDeltaAt(b *testing.B) {
	c := Compile(gridAssignment(7))
	r := rng.New(1)
	pts := make([]geo.Point, 1024)
	for i := range pts {
		pts[i] = geo.Point{X: r.Range(-50, 1050), Y: r.Range(-50, 1050)}
	}
	b.ResetTimer()
	sum := 0.0
	for i := 0; i < b.N; i++ {
		sum += c.DeltaAt(pts[i&1023])
	}
	if sum == 0 {
		b.Fatal("no throttlers looked up")
	}
}

func TestCompiledOutsidePointFallsBack(t *testing.T) {
	a := gridAssignment(2)
	a.DefaultDelta = 42
	c := Compile(a)
	if got := c.DeltaAt(geo.Point{X: 5000, Y: 5000}); got != 42 {
		t.Errorf("outside point Δ = %v, want fallback 42", got)
	}
}

func TestCompileEmptyAssignment(t *testing.T) {
	c := Compile(&basestation.Assignment{DefaultDelta: 7})
	if got := c.DeltaAt(geo.Point{X: 1, Y: 1}); got != 7 {
		t.Errorf("empty assignment Δ = %v, want 7", got)
	}
	if c.RegionCount() != 0 {
		t.Errorf("RegionCount = %d", c.RegionCount())
	}
}

// Property: the 5×5 index always agrees with a linear scan over the
// assignment's regions.
func TestIndexMatchesLinearScanProperty(t *testing.T) {
	f := func(seed uint64, kRaw uint8) bool {
		k := int(kRaw)%6 + 1
		a := gridAssignment(k)
		c := Compile(a)
		r := rng.New(seed)
		for trial := 0; trial < 50; trial++ {
			p := geo.Point{X: r.Range(0, 1000), Y: r.Range(0, 1000)}
			want := a.DefaultDelta
			for i, reg := range a.Regions {
				if reg.Contains(p) {
					want = a.Deltas[i]
					break
				}
			}
			if c.DeltaAt(p) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestNodeLifecycle(t *testing.T) {
	n := NewNode(3)
	if n.Station() != -1 {
		t.Fatalf("fresh node station = %d", n.Station())
	}
	rep := n.Start(geo.Point{X: 0, Y: 0}, geo.Vector{X: 10, Y: 0}, 0)
	if rep.Pos != (geo.Point{X: 0, Y: 0}) || n.Updates != 1 {
		t.Fatalf("Start: rep=%+v updates=%d", rep, n.Updates)
	}
	// Without an installed assignment, the fallback Δ applies.
	if got := n.Delta(geo.Point{X: 1, Y: 1}, 9); got != 9 {
		t.Errorf("fallback Δ = %v, want 9", got)
	}
	// Perfectly predicted motion with a generous threshold: silent.
	if _, send := n.Observe(geo.Point{X: 10, Y: 0}, geo.Vector{X: 10, Y: 0}, 1, 5); send {
		t.Error("predicted motion should not report")
	}
	// Large deviation: reports.
	if _, send := n.Observe(geo.Point{X: 100, Y: 100}, geo.Vector{X: 0, Y: 0}, 2, 5); !send {
		t.Error("deviating node should report")
	}
	if n.Updates != 2 {
		t.Errorf("Updates = %d, want 2", n.Updates)
	}
}

func TestNodeHandoffCounting(t *testing.T) {
	n := NewNode(0)
	c1 := Compile(gridAssignment(2))
	c2 := Compile(gridAssignment(3))
	n.Install(0, c1)
	if n.Handoffs != 0 {
		t.Errorf("first install is not a hand-off: %d", n.Handoffs)
	}
	n.Install(0, c2) // reconfiguration broadcast: assignment replaced, no hand-off
	if n.Handoffs != 0 {
		t.Errorf("same-station install counted: %d", n.Handoffs)
	}
	if got := n.Delta(geo.Point{X: 10, Y: 10}, 99); got != c2.DeltaAt(geo.Point{X: 10, Y: 10}) {
		t.Errorf("reconfiguration did not replace the assignment: Δ = %v", got)
	}
	n.Install(1, c1)
	if n.Handoffs != 1 {
		t.Errorf("Handoffs = %d, want 1", n.Handoffs)
	}
	if n.Station() != 1 {
		t.Errorf("Station = %d, want 1", n.Station())
	}
}

func TestNodeDropDegradesToFallback(t *testing.T) {
	n := NewNode(0)
	c1 := Compile(gridAssignment(2))
	n.Install(4, c1)
	p := geo.Point{X: 10, Y: 10}
	if got := n.Delta(p, 99); got == 99 {
		t.Fatal("installed node still using fallback Δ")
	}
	n.Drop()
	if n.Station() != -1 {
		t.Errorf("dropped node station = %d, want -1", n.Station())
	}
	if got := n.Delta(p, 99); got != 99 {
		t.Errorf("dropped node Δ = %v, want fallback 99", got)
	}
	if n.Handoffs != 0 {
		t.Errorf("Drop counted as hand-off: %d", n.Handoffs)
	}
	// Reinstalling the same station after a resync is not a hand-off
	// either: the drop erased the station, so the reinstall looks like
	// the pre-first-assignment state.
	n.Install(4, c1)
	if n.Handoffs != 0 {
		t.Errorf("resync reinstall counted as hand-off: %d", n.Handoffs)
	}
	if got := n.Delta(p, 99); got == 99 {
		t.Error("reinstall did not restore the region Δ")
	}
}

func TestNodeUsesRegionDelta(t *testing.T) {
	n := NewNode(0)
	a := gridAssignment(2) // deltas 5, 6, 7, 8 over quadrants
	n.Install(0, Compile(a))
	n.Start(geo.Point{X: 100, Y: 100}, geo.Vector{}, 0)
	// Deviation of 5.5 m: exceeds region 0's Δ=5.
	if _, send := n.Observe(geo.Point{X: 105.5, Y: 100}, geo.Vector{}, 1, 99); !send {
		t.Error("deviation above region Δ should report")
	}
	// In region 3 (Δ=8), the same deviation is suppressed.
	n.Start(geo.Point{X: 900, Y: 900}, geo.Vector{}, 2)
	if _, send := n.Observe(geo.Point{X: 905.5, Y: 900}, geo.Vector{}, 3, 99); send {
		t.Error("deviation below region Δ should be suppressed")
	}
}
