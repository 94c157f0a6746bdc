// Package roadnet generates the synthetic road network over which the
// mobile-node traces are simulated.
//
// The paper evaluates LIRA on a trace generated from the USGS road map of
// the Chamblee region of Georgia (≈200 km², "a rich mixture of expressways,
// arterial roads, and collector roads") with real traffic-volume data. That
// map and the volume data are not available here, so this package builds
// the closest synthetic equivalent (see DESIGN.md §4): a hierarchical
// network of the same three road classes over the same-sized space, with
// heavy-tailed per-edge traffic volumes concentrated around a small number
// of urban centers. What the experiments actually depend on — spatially
// skewed node density, per-region speed differences, and road-constrained
// motion — are all reproduced.
package roadnet

import (
	"fmt"
	"math"

	"lira/internal/geo"
	"lira/internal/rng"
)

// Class identifies the road hierarchy level of an edge.
type Class uint8

const (
	// Collector roads are slow local streets, present mainly near urban
	// centers.
	Collector Class = iota
	// Arterial roads form a mid-speed grid across the whole space.
	Arterial
	// Expressway roads are the sparse high-speed backbone.
	Expressway
	numClasses
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case Collector:
		return "collector"
	case Arterial:
		return "arterial"
	case Expressway:
		return "expressway"
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// Speed returns the free-flow speed of the class in meters per second.
func (c Class) Speed() float64 {
	switch c {
	case Collector:
		return 8.3 // ≈30 km/h
	case Arterial:
		return 16.7 // ≈60 km/h
	case Expressway:
		return 27.8 // ≈100 km/h
	}
	return 8.3
}

// Node is a road intersection.
type Node struct {
	Pos geo.Point
	// Out lists the ids of edges leaving this node.
	Out []int
}

// Edge is a directed road segment between two intersections. Every road is
// represented by a pair of opposite directed edges.
type Edge struct {
	From, To int
	Class    Class
	Length   float64
	// Volume is the relative traffic volume of the edge; trip starts and
	// routing decisions are drawn proportionally to it.
	Volume float64
	// Reverse is the id of the opposite-direction twin edge.
	Reverse int
}

// Network is an immutable road network.
type Network struct {
	Space geo.Rect
	Nodes []Node
	Edges []Edge

	totalVolume float64
	volumeCDF   []float64    // prefix sums over Edges for O(log E) sampling
	dirs        []geo.Vector // unit direction per edge, fixed by geometry
}

// Config controls network generation.
type Config struct {
	// Side is the side length of the square space in meters.
	// The default (14142 m) gives the paper's ≈200 km².
	Side float64
	// GridStep is the intersection spacing of the base grid in meters.
	GridStep float64
	// ArterialEvery selects every k-th grid line as an arterial.
	ArterialEvery int
	// ExpresswayEvery selects every k-th grid line as an expressway.
	// Must be a multiple of ArterialEvery to keep the hierarchy nested.
	ExpresswayEvery int
	// Centers is the number of urban centers around which collector roads
	// (and traffic volume) concentrate.
	Centers int
	// CenterRadius is the e-folding radius, in meters, of the urban
	// density around each center.
	CenterRadius float64
	// Seed drives all randomness in generation.
	Seed uint64
}

// DefaultConfig returns the generation parameters used by the experiment
// harness: a ≈200 km² space matching the paper's Chamblee extract.
func DefaultConfig() Config {
	return Config{
		Side:            14142,
		GridStep:        442, // 32 grid lines per side
		ArterialEvery:   4,
		ExpresswayEvery: 16,
		Centers:         3,
		CenterRadius:    2200,
		Seed:            1,
	}
}

func (c *Config) fillDefaults() {
	d := DefaultConfig()
	if c.Side <= 0 {
		c.Side = d.Side
	}
	if c.GridStep <= 0 {
		c.GridStep = d.GridStep
	}
	if c.ArterialEvery <= 0 {
		c.ArterialEvery = d.ArterialEvery
	}
	if c.ExpresswayEvery <= 0 {
		c.ExpresswayEvery = d.ExpresswayEvery
	}
	if c.Centers <= 0 {
		c.Centers = d.Centers
	}
	if c.CenterRadius <= 0 {
		c.CenterRadius = d.CenterRadius
	}
}

// Generate builds a network from cfg. Generation is deterministic in
// cfg.Seed.
func Generate(cfg Config) *Network {
	cfg.fillDefaults()
	r := rng.New(cfg.Seed)

	lines := int(math.Round(cfg.Side/cfg.GridStep)) + 1
	if lines < 2 {
		lines = 2
	}
	step := cfg.Side / float64(lines-1)

	// Urban centers: traffic volume and collector-road presence decay
	// exponentially with distance from the nearest center. Center weights
	// are skewed so one center dominates, like a real downtown.
	centers := make([]geo.Point, cfg.Centers)
	weights := make([]float64, cfg.Centers)
	for i := range centers {
		centers[i] = geo.Point{
			X: r.Range(0.2, 0.8) * cfg.Side,
			Y: r.Range(0.2, 0.8) * cfg.Side,
		}
		weights[i] = 1 / float64(i+1)
	}
	urban := func(p geo.Point) float64 {
		d := 0.0
		for i, c := range centers {
			d += weights[i] * math.Exp(-p.Dist(c)/cfg.CenterRadius)
		}
		return d
	}

	net := &Network{Space: geo.Rect{MinX: 0, MinY: 0, MaxX: cfg.Side, MaxY: cfg.Side}}

	// Grid intersections with positional jitter (no jitter on expressway
	// lines, which stay straight).
	idx := func(i, j int) int { return i*lines + j }
	net.Nodes = make([]Node, lines*lines)
	classOf := func(k int) Class {
		switch {
		case k%cfg.ExpresswayEvery == 0:
			return Expressway
		case k%cfg.ArterialEvery == 0:
			return Arterial
		default:
			return Collector
		}
	}
	for i := 0; i < lines; i++ {
		for j := 0; j < lines; j++ {
			x := float64(i) * step
			y := float64(j) * step
			jitter := step * 0.15
			if classOf(i) == Collector {
				x += r.Range(-jitter, jitter)
			}
			if classOf(j) == Collector {
				y += r.Range(-jitter, jitter)
			}
			net.Nodes[idx(i, j)] = Node{Pos: geo.Point{X: x, Y: y}}
		}
	}

	// Edge class is the lower of the two line classes it connects along;
	// a segment along line k has class classOf(k).
	addRoad := func(a, b int, class Class) {
		// Collector segments exist only where urban density supports them.
		if class == Collector {
			mid := geo.Point{
				X: (net.Nodes[a].Pos.X + net.Nodes[b].Pos.X) / 2,
				Y: (net.Nodes[a].Pos.Y + net.Nodes[b].Pos.Y) / 2,
			}
			if !r.Bool(math.Min(1, urban(mid)*2.5)) {
				return
			}
		}
		length := net.Nodes[a].Pos.Dist(net.Nodes[b].Pos)
		mid := geo.Point{
			X: (net.Nodes[a].Pos.X + net.Nodes[b].Pos.X) / 2,
			Y: (net.Nodes[a].Pos.Y + net.Nodes[b].Pos.Y) / 2,
		}
		// Volume: class base × urban boost × heavy-tailed noise.
		base := 1.0
		switch class {
		case Arterial:
			base = 6
		case Expressway:
			base = 30
		}
		// Traffic volume: class base × squared urban proximity × noise.
		// The tiny floor keeps rural roads technically trafficked while
		// preserving the real-world property that genuinely rural areas
		// carry almost no vehicles — the density contrast LIRA's
		// region-awareness exploits.
		u := urban(mid)
		vol := base * (0.005 + u*u) * math.Exp(r.Norm(0, 0.5))

		e1 := len(net.Edges)
		e2 := e1 + 1
		net.Edges = append(net.Edges,
			Edge{From: a, To: b, Class: class, Length: length, Volume: vol, Reverse: e2},
			Edge{From: b, To: a, Class: class, Length: length, Volume: vol, Reverse: e1},
		)
		net.Nodes[a].Out = append(net.Nodes[a].Out, e1)
		net.Nodes[b].Out = append(net.Nodes[b].Out, e2)
	}

	for i := 0; i < lines; i++ {
		for j := 0; j < lines; j++ {
			if i+1 < lines { // horizontal segment along line y=j
				addRoad(idx(i, j), idx(i+1, j), classOf(j))
			}
			if j+1 < lines { // vertical segment along line x=i
				addRoad(idx(i, j), idx(i, j+1), classOf(i))
			}
		}
	}

	net.buildCDF()
	net.dirs = make([]geo.Vector, len(net.Edges))
	for e, edge := range net.Edges {
		net.dirs[e] = net.Nodes[edge.To].Pos.Sub(net.Nodes[edge.From].Pos).Unit()
	}
	return net
}

func (n *Network) buildCDF() {
	n.volumeCDF = make([]float64, len(n.Edges))
	sum := 0.0
	for i, e := range n.Edges {
		sum += e.Volume
		n.volumeCDF[i] = sum
	}
	n.totalVolume = sum
}

// SampleEdge draws an edge id with probability proportional to its traffic
// volume.
func (n *Network) SampleEdge(r *rng.Rand) int {
	u := r.Float64() * n.totalVolume
	lo, hi := 0, len(n.volumeCDF)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if n.volumeCDF[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// PointAlong returns the point a fraction t ∈ [0,1] of the way along edge e.
func (n *Network) PointAlong(e int, t float64) geo.Point {
	edge := n.Edges[e]
	a, b := n.Nodes[edge.From].Pos, n.Nodes[edge.To].Pos
	return geo.Point{X: a.X + (b.X-a.X)*t, Y: a.Y + (b.Y-a.Y)*t}
}

// Direction returns the unit direction vector of edge e.
func (n *Network) Direction(e int) geo.Vector { return n.dirs[e] }

// NextEdge picks the edge a vehicle arriving at the To node of edge e
// continues on. Choices are weighted by volume, with a strong preference
// for not making an immediate U-turn; dead ends force a U-turn.
func (n *Network) NextEdge(e int, r *rng.Rand) int {
	node := n.Edges[e].To
	out := n.Nodes[node].Out
	rev := n.Edges[e].Reverse
	total := 0.0
	for _, cand := range out {
		if cand == rev {
			continue
		}
		total += n.Edges[cand].Volume
	}
	if total == 0 {
		return rev // dead end
	}
	u := r.Float64() * total
	for _, cand := range out {
		if cand == rev {
			continue
		}
		u -= n.Edges[cand].Volume
		if u <= 0 {
			return cand
		}
	}
	// Floating-point slack: fall back to the last non-reverse edge.
	for i := len(out) - 1; i >= 0; i-- {
		if out[i] != rev {
			return out[i]
		}
	}
	return rev
}

// MostLikelyNext returns the deterministic most-probable continuation of
// edge e: the highest-volume outgoing edge at e's head, excluding the
// U-turn (which is returned only at dead ends). Road-network-aware motion
// models use it to predict a vehicle's path without randomness.
func (n *Network) MostLikelyNext(e int) int {
	node := n.Edges[e].To
	rev := n.Edges[e].Reverse
	best, bestVol := -1, -1.0
	for _, cand := range n.Nodes[node].Out {
		if cand == rev {
			continue
		}
		if v := n.Edges[cand].Volume; v > bestVol {
			best, bestVol = cand, v
		}
	}
	if best == -1 {
		return rev
	}
	return best
}

// Stats summarizes a network for logging and tests.
type Stats struct {
	Nodes, Edges                       int
	CollectorKm, ArterialKm, ExpressKm float64
}

// Stats returns summary statistics of the network. Lengths count each road
// once (not per directed twin).
func (n *Network) Stats() Stats {
	s := Stats{Nodes: len(n.Nodes), Edges: len(n.Edges)}
	for i, e := range n.Edges {
		if i%2 != 0 { // skip reverse twins
			continue
		}
		switch e.Class {
		case Collector:
			s.CollectorKm += e.Length / 1000
		case Arterial:
			s.ArterialKm += e.Length / 1000
		case Expressway:
			s.ExpressKm += e.Length / 1000
		}
	}
	return s
}
