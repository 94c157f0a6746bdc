package main

import (
	"math"
	"reflect"
	"testing"

	"lira/internal/geo"
	"lira/internal/rng"
	"lira/internal/workload"
)

func TestSummarizeTailKeepsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n     int
		tailP float64
	}{
		{n: 2000, tailP: 0.99},  // p99 has 20 beyond it
		{n: 500, tailP: 0.98},   // p99 would have 5 beyond: rank 490 has 10
		{n: 11, tailP: 1 / 11.}, // only the smallest value has ten beyond it
		{n: 5, tailP: 1},        // too small: the maximum
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(tc.n - i) // descending, so summarize must sort
		}
		q := summarize(xs)
		if math.Abs(q.TailP-tc.tailP) > 1e-9 {
			t.Errorf("n=%d: tail percentile %v, want %v", tc.n, q.TailP, tc.tailP)
		}
		beyond := 0
		for _, x := range xs {
			if x > q.Tail {
				beyond++
			}
		}
		if tc.n > 10 && beyond < 10 {
			t.Errorf("n=%d: %d samples beyond the tail, want at least 10", tc.n, beyond)
		}
		if want := xs[int(math.Ceil(0.5*float64(tc.n)))-1]; q.P50 != want {
			t.Errorf("n=%d: median %v, want %v", tc.n, q.P50, want)
		}
	}
}

func TestWeightedQuantileCountsEachObservation(t *testing.T) {
	xs := []weighted{{v: 30, count: 1}, {v: 10, count: 98}, {v: 20, count: 1}}
	if got := weightedQuantile(xs, 0.98); got != 10 {
		t.Errorf("p98 = %v, want 10", got)
	}
	if got := weightedQuantile(xs, 0.99); got != 20 {
		t.Errorf("p99 = %v, want 20", got)
	}
	if got := weightedQuantile(xs, 1); got != 30 {
		t.Errorf("p100 = %v, want 30", got)
	}
}

func TestScoreECMatchesBruteForce(t *testing.T) {
	pos := []geo.Point{{X: 1, Y: 1}, {X: 5, Y: 5}, {X: 9, Y: 9}, {X: 2, Y: 8}, {X: 4, Y: 4}}
	q := geo.NewRect(0, 0, 6, 6)
	truth := membersOf(q, pos)
	if !reflect.DeepEqual(truth, []int{0, 1, 4}) {
		t.Fatalf("brute-force membership %v", truth)
	}
	// Result: one true member missing (4), one false member (3), and a
	// probe id above the limit that must be ignored.
	ce, ok := scoreEC([]uint32{0, 1, 3, 100}, truth, len(pos))
	if !ok || math.Abs(ce-2.0/3) > 1e-12 {
		t.Fatalf("E^C = %v (%v), want 2/3", ce, ok)
	}
	if ce, ok := scoreEC([]uint32{4, 1, 0}, truth, len(pos)); !ok || ce != 0 {
		t.Fatalf("exact result scored %v (%v), want 0", ce, ok)
	}
	if _, ok := scoreEC([]uint32{1}, nil, len(pos)); ok {
		t.Fatal("E^C defined for an empty true result")
	}
}

func TestPointGridMatchesBruteForce(t *testing.T) {
	space := geo.Rect{MaxX: 1000, MaxY: 1000}
	r := rng.New(9)
	pos := make([]geo.Point, 3000)
	for i := range pos {
		pos[i] = geo.Point{X: r.Range(-20, 1020), Y: r.Range(-20, 1020)} // some outside the space
	}
	g := newPointGrid(space, 70)
	g.fill(pos)
	for i := 0; i < 200; i++ {
		c := geo.Point{X: r.Range(-100, 1100), Y: r.Range(-100, 1100)}
		q := geo.Square(c, r.Range(1, 400))
		if got, want := g.members(q, pos), membersOf(q, pos); !reflect.DeepEqual(got, want) {
			t.Fatalf("query %v: grid found %d members, brute force %d", q, len(got), len(want))
		}
	}
}

func TestProbeMatcherEntryAndExit(t *testing.T) {
	ps := []probe{
		{Due: 1.00, Node: 7, In: true},
		{Due: 2.00, Node: 7, In: false},
		{Due: 3.00, Node: 8, In: true}, // never reflected: a miss
	}
	m := newProbeMatcher(ps, 0.5)
	m.observe(0.99, []uint32{7})    // before it was due: not counted
	m.observe(1.02, []uint32{1, 2}) // due, not yet reflected
	m.observe(1.05, []uint32{2, 7}) // entry reflected after 50 ms
	m.observe(2.01, []uint32{7})    // exit due, node still in
	m.observe(2.08, []uint32{})     // exit reflected after 80 ms
	m.observe(3.10, []uint32{7})    // node 8 absent
	m.observe(3.60, []uint32{7})    // 600 ms > limit: missed
	m.finish(4)
	want := []float64{0.05, 0.08}
	if len(m.Latencies) != 2 || math.Abs(m.Latencies[0]-want[0]) > 1e-9 || math.Abs(m.Latencies[1]-want[1]) > 1e-9 {
		t.Fatalf("latencies %v, want %v", m.Latencies, want)
	}
	if m.Missed != 1 || m.sent() != 3 {
		t.Fatalf("missed %d of %d, want 1 of 3", m.Missed, m.sent())
	}
}

func TestProbeMatcherFinishCountsOpenProbes(t *testing.T) {
	m := newProbeMatcher([]probe{{Due: 1, Node: 1, In: true}, {Due: 9, Node: 2, In: true}}, 1)
	m.finish(5) // the first is open, the second was never sent
	if m.Missed != 1 || m.sent() != 1 {
		t.Fatalf("missed %d of %d, want 1 of 1", m.Missed, m.sent())
	}
}

func TestSchedulesArePureFunctionsOfTheSeed(t *testing.T) {
	a := probeSchedule(3, 40, 0, 20, 100, 8)
	b := probeSchedule(3, 40, 0, 20, 100, 8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("probe schedule differs for one seed")
	}
	if reflect.DeepEqual(a, probeSchedule(4, 40, 0, 20, 100, 8)) {
		t.Fatal("probe schedule ignores the seed")
	}
	if n := len(a); n < 700 || n > 900 {
		t.Fatalf("%d probes in 20 s at 40/s", n)
	}
	for i := 8; i < len(a); i++ {
		if a[i].Node != a[i-8].Node || a[i].In == a[i-8].In {
			t.Fatalf("probe %d does not alternate on its node", i)
		}
	}

	emit := func(seed uint64) []float64 {
		space := geo.Rect{MaxX: 5000, MaxY: 5000}
		sc, err := workload.BuildScenario("flash-crowd", space, 500, 50, seed)
		if err != nil {
			t.Fatal(err)
		}
		var out []float64
		for k := 0; k < 30; k++ {
			sc.Emit(float64(k), func(node int, p geo.Point, v geo.Vector) {
				out = append(out, float64(node), p.X, p.Y, v.X, v.Y)
			})
		}
		return out
	}
	if !reflect.DeepEqual(emit(5), emit(5)) {
		t.Fatal("flash-crowd emission differs for one seed")
	}
	if reflect.DeepEqual(emit(5), emit(6)) {
		t.Fatal("flash-crowd emission ignores the seed")
	}
}
