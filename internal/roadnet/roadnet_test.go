package roadnet

import (
	"math"
	"testing"

	"lira/internal/rng"
)

func testNet(t *testing.T) *Network {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Side = 4000
	cfg.GridStep = 250
	cfg.Centers = 2
	cfg.CenterRadius = 800
	return Generate(cfg)
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(DefaultConfig())
	b := Generate(DefaultConfig())
	if len(a.Edges) != len(b.Edges) || len(a.Nodes) != len(b.Nodes) {
		t.Fatalf("same seed produced different sizes: %d/%d vs %d/%d",
			len(a.Nodes), len(a.Edges), len(b.Nodes), len(b.Edges))
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
}

func TestSeedChangesNetwork(t *testing.T) {
	cfg := DefaultConfig()
	a := Generate(cfg)
	cfg.Seed = 99
	b := Generate(cfg)
	if len(a.Edges) == len(b.Edges) {
		same := true
		for i := range a.Edges {
			if a.Edges[i].Volume != b.Edges[i].Volume {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical networks")
		}
	}
}

func TestNodesInsideSpace(t *testing.T) {
	n := testNet(t)
	for i, node := range n.Nodes {
		p := node.Pos
		// Jitter may push a node slightly past the boundary; allow one
		// jitter radius of slack.
		if p.X < -100 || p.X > n.Space.MaxX+100 || p.Y < -100 || p.Y > n.Space.MaxY+100 {
			t.Fatalf("node %d far outside space: %v", i, p)
		}
	}
}

func TestEdgeTwins(t *testing.T) {
	n := testNet(t)
	for i, e := range n.Edges {
		rev := n.Edges[e.Reverse]
		if rev.Reverse != i {
			t.Fatalf("edge %d reverse pairing broken", i)
		}
		if rev.From != e.To || rev.To != e.From {
			t.Fatalf("edge %d twin endpoints mismatched", i)
		}
		if rev.Volume != e.Volume || rev.Class != e.Class {
			t.Fatalf("edge %d twin attributes differ", i)
		}
	}
}

func TestAllClassesPresent(t *testing.T) {
	n := testNet(t)
	var have [numClasses]bool
	for _, e := range n.Edges {
		have[e.Class] = true
	}
	for c := Collector; c < numClasses; c++ {
		if !have[c] {
			t.Errorf("network has no %v edges", c)
		}
	}
}

func TestClassSpeedsOrdered(t *testing.T) {
	if !(Collector.Speed() < Arterial.Speed() && Arterial.Speed() < Expressway.Speed()) {
		t.Error("class speeds are not strictly increasing with hierarchy")
	}
}

func TestArterialGridConnected(t *testing.T) {
	// Every node with at least one outgoing edge must reach a large
	// connected component; collectors can dead-end but the arterial grid
	// spans the space. Check: ≥95% of edge-having nodes are in one BFS
	// component.
	n := testNet(t)
	start := -1
	withEdges := 0
	for i := range n.Nodes {
		if len(n.Nodes[i].Out) > 0 {
			withEdges++
			if start == -1 {
				start = i
			}
		}
	}
	if start == -1 {
		t.Fatal("no edges at all")
	}
	seen := make([]bool, len(n.Nodes))
	queue := []int{start}
	seen[start] = true
	reached := 1
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, e := range n.Nodes[v].Out {
			to := n.Edges[e].To
			if !seen[to] {
				seen[to] = true
				reached++
				queue = append(queue, to)
			}
		}
	}
	if float64(reached) < 0.95*float64(withEdges) {
		t.Errorf("connected component covers %d of %d noded intersections", reached, withEdges)
	}
}

func TestSampleEdgeFollowsVolume(t *testing.T) {
	n := testNet(t)
	r := rng.New(5)
	counts := make(map[Class]float64)
	const draws = 50000
	for i := 0; i < draws; i++ {
		e := n.SampleEdge(r)
		counts[n.Edges[e].Class]++
	}
	// Expressways are few but high-volume: their per-edge draw frequency
	// must exceed collectors' by a wide margin.
	classEdges := make(map[Class]float64)
	for _, e := range n.Edges {
		classEdges[e.Class]++
	}
	// Collectors only exist inside urban cores (where density is high),
	// so the per-edge contrast is moderated; expressways must still be
	// clearly busier per edge.
	exp := counts[Expressway] / classEdges[Expressway]
	col := counts[Collector] / classEdges[Collector]
	if exp < 2*col {
		t.Errorf("expressway per-edge draw rate %.4f not ≫ collector %.4f", exp, col)
	}
}

func TestNextEdgeAvoidsUTurn(t *testing.T) {
	n := testNet(t)
	r := rng.New(7)
	uturns, total := 0, 0
	for i := 0; i < 5000; i++ {
		e := n.SampleEdge(r)
		node := n.Edges[e].To
		if len(n.Nodes[node].Out) < 2 {
			continue // dead end: U-turn is forced, not counted
		}
		next := n.NextEdge(e, r)
		if next == n.Edges[e].Reverse {
			uturns++
		}
		total++
	}
	if total == 0 {
		t.Fatal("no samples")
	}
	if float64(uturns)/float64(total) > 0.01 {
		t.Errorf("U-turn rate %.3f at non-dead-ends, want ~0", float64(uturns)/float64(total))
	}
}

func TestPointAlong(t *testing.T) {
	n := testNet(t)
	e := 0
	a := n.Nodes[n.Edges[e].From].Pos
	b := n.Nodes[n.Edges[e].To].Pos
	if got := n.PointAlong(e, 0); got != a {
		t.Errorf("PointAlong(0) = %v, want %v", got, a)
	}
	if got := n.PointAlong(e, 1); got != b {
		t.Errorf("PointAlong(1) = %v, want %v", got, b)
	}
	mid := n.PointAlong(e, 0.5)
	if math.Abs(mid.Dist(a)-mid.Dist(b)) > 1e-9 {
		t.Errorf("midpoint not equidistant: %v", mid)
	}
}

func TestDirectionUnit(t *testing.T) {
	n := testNet(t)
	for e := 0; e < len(n.Edges); e += 97 {
		if n.Edges[e].Length == 0 {
			continue
		}
		d := n.Direction(e)
		if math.Abs(d.Len()-1) > 1e-9 {
			t.Fatalf("Direction(%d) not unit: %v", e, d.Len())
		}
	}
}

// TestDirectionTableMatchesGeometry pins the precomputed direction table
// to the geometry it caches, bit for bit, on the network and on a
// closure clone (which shares the table).
func TestDirectionTableMatchesGeometry(t *testing.T) {
	n := testNet(t)
	closed := n.WithClosures(n.TopVolumeEdges(5))
	for e, edge := range n.Edges {
		want := n.Nodes[edge.To].Pos.Sub(n.Nodes[edge.From].Pos).Unit()
		if got := n.Direction(e); got != want {
			t.Fatalf("Direction(%d) = %v, want %v", e, got, want)
		}
		if got := closed.Direction(e); got != want {
			t.Fatalf("closed Direction(%d) = %v, want %v", e, got, want)
		}
	}
}

func TestStats(t *testing.T) {
	n := testNet(t)
	s := n.Stats()
	if s.Nodes != len(n.Nodes) || s.Edges != len(n.Edges) {
		t.Errorf("Stats counts wrong: %+v", s)
	}
	if s.ExpressKm <= 0 || s.ArterialKm <= 0 || s.CollectorKm <= 0 {
		t.Errorf("Stats lengths should all be positive: %+v", s)
	}
	if s.ArterialKm < s.ExpressKm {
		t.Errorf("arterial length %.1f should exceed expressway %.1f", s.ArterialKm, s.ExpressKm)
	}
}

func TestUrbanDensitySkew(t *testing.T) {
	// Collector edges should concentrate: the densest quarter of the space
	// must hold well more than a quarter of the collector length.
	n := testNet(t)
	half := n.Space.MaxX / 2
	quadLen := [4]float64{}
	total := 0.0
	for i, e := range n.Edges {
		if i%2 != 0 || e.Class != Collector {
			continue
		}
		mid := n.PointAlong(i, 0.5)
		q := 0
		if mid.X >= half {
			q |= 1
		}
		if mid.Y >= half {
			q |= 2
		}
		quadLen[q] += e.Length
		total += e.Length
	}
	if total == 0 {
		t.Fatal("no collector edges")
	}
	max := 0.0
	for _, l := range quadLen {
		if l > max {
			max = l
		}
	}
	if max/total < 0.3 {
		t.Errorf("collector density too uniform: max quadrant share %.2f", max/total)
	}
}
