package main

import (
	"fmt"
	"math"

	"lira/internal/basestation"
	"lira/internal/geo"
	"lira/internal/mobilenode"
	"lira/internal/rng"
	"lira/internal/roadnet"
	"lira/internal/trace"
	"lira/internal/wire"
	"lira/internal/workload"
)

// serveConfig sizes one serving workload. The seed drives the motion
// (the fleet's cars or the scenario's emission) and the probe and
// re-registration schedules. The road network, the queries, and the
// scored sample are the same at every seed, so the work asked of the
// server does not vary with it. On serve-steady the reports also follow
// the Δᵢ the server broadcasts, as a LIRA fleet's do.
type serveConfig struct {
	name  string
	flash bool

	// nodes is the fleet (serve-steady) or scenario (serve-flash)
	// population; probe and marker nodes take the ids above it.
	nodes int
	side  float64

	queries   int     // standing range queries (serve-flash: a square tiling)
	querySide float64 // their side length w (sides drawn from [w/2, w])
	sampled   int     // standing queries scored for result_ec

	reregs    int     // re-registering query ids (0: none)
	reregRate float64 // re-registrations per second, Poisson

	probes     int     // probe nodes
	probeRate  float64 // probe reports per second, Poisson
	probeLimit float64 // seconds before an unreflected probe is a miss

	queueSize  int
	evalEvery  float64 // server evaluation period, seconds
	adaptEvery float64 // server adaptation period, seconds
	stepEvery  float64 // gateway batch period, seconds
	fleetEvery float64 // fleet step and truth period, seconds

	// serve-flash only: wall seconds per scenario tick and the scenario's
	// base report count per tick (its peak is four times that).
	tickWall float64
	baseRate float64
}

var steadyConfig = serveConfig{
	name:       "serve-steady",
	nodes:      20000,
	side:       5000,
	queries:    300,
	querySide:  300,
	sampled:    48,
	reregs:     16,
	reregRate:  8,
	probes:     128,
	probeRate:  100,
	probeLimit: 1,
	queueSize:  1 << 16,
	evalEvery:  0.05,
	adaptEvery: 5,
	stepEvery:  0.01,
	fleetEvery: 0.07, // not a multiple of evalEvery: every phase against the server's ticks occurs
}

var flashConfig = serveConfig{
	name:       "serve-flash",
	flash:      true,
	nodes:      20000,
	side:       5000,
	queries:    64, // an 8×8 tiling of the space
	querySide:  625,
	sampled:    64,
	probes:     128,
	probeRate:  100,
	probeLimit: 1,
	queueSize:  1 << 14,
	evalEvery:  0.05,
	adaptEvery: 1,
	stepEvery:  0.002,
	fleetEvery: 0.07,
	tickWall:   0.25,
	baseRate:   20000,
}

// probeRect is the small rect probe nodes jump into; probeOut is where
// they wait outside it.
func (c serveConfig) probeRect() geo.Rect { return geo.Square(geo.Point{X: 150, Y: 150}, 100) }
func (c serveConfig) probeOut() geo.Point { return geo.Point{X: 25, Y: 25} }

// Node-id layout: [0, nodes) fleet, then probes, then two markers per
// re-registering query.
func (c serveConfig) firstProbe() uint32  { return uint32(c.nodes) }
func (c serveConfig) firstMarker() uint32 { return uint32(c.nodes + c.probes) }
func (c serveConfig) totalNodes() int     { return c.nodes + c.probes + 2*c.reregs }

// Query-id layout: standing queries 0..queries-1, the probe query, the
// re-registering ids, then the sentinel registered last in set-up.
func (c serveConfig) probeQuery() uint32    { return uint32(c.queries) }
func (c serveConfig) firstRereg() uint32    { return uint32(c.queries + 1) }
func (c serveConfig) sentinelQuery() uint32 { return uint32(c.queries + 1 + c.reregs) }

// reregistration is one scheduled query re-registration: id moves to
// rect, whose marker node must appear in the reply while the marker of
// the rect it left must not.
type reregistration struct {
	Due      float64
	ID       uint32
	Rect     geo.Rect
	Want     uint32 // marker inside the new rect
	Unwanted uint32 // marker inside the previous rect
}

// serveInputs is everything the generator sends.
type serveInputs struct {
	cfg      serveConfig
	space    geo.Rect
	standing []geo.Rect
	sampled  []int // indices into standing scored for result_ec
	probes   []probe
	reregs   []reregistration
	// reregRects[i] holds query firstRereg()+i's two rects; markers[2i+k]
	// sits at the center of reregRects[i][k].
	reregRects [][2]geo.Rect

	// serve-steady: the road-network fleet.
	fleet *trace.Source

	// serve-flash: the flash-crowd catalog scenario, emitted tick by
	// tick while the run lasts.
	scenario workload.Scenario

	grid *pointGrid // the gateway's truth index
}

func newServeInputs(cfg serveConfig, seed uint64, seconds float64) (*serveInputs, error) {
	in := &serveInputs{cfg: cfg, space: geo.Rect{MaxX: cfg.side, MaxY: cfg.side}}
	if cfg.flash {
		sc, err := workload.BuildScenario("flash-crowd", in.space, cfg.nodes, cfg.baseRate, seed)
		if err != nil {
			return nil, err
		}
		if _, ok := sc.(workload.MotionSource); !ok {
			return nil, fmt.Errorf("flash-crowd scenario exposes no dense motion")
		}
		in.scenario = sc
		if in.standing = tiling(in.space, cfg.queries); len(in.standing) != cfg.queries {
			return nil, fmt.Errorf("%d queries do not tile the space", cfg.queries)
		}
	} else {
		netCfg := roadnet.DefaultConfig()
		netCfg.Side = cfg.side
		netCfg.GridStep = 400
		netCfg.Centers = 2
		netCfg.CenterRadius = 1000
		netCfg.Seed = 1 // one network for every seed, so its size is fixed
		net := roadnet.Generate(netCfg)
		in.space = net.Space
		in.fleet = trace.NewSource(net, trace.Config{N: cfg.nodes, Seed: seed + 1})
		// Queries follow the density of a fleet of fixed seed: the seed
		// moves the cars, not the work the queries ask for.
		placement := trace.NewSource(net, trace.Config{N: cfg.nodes, Seed: 1}).Positions()
		qs, err := workload.GenerateQueries(in.space, placement, workload.QueryConfig{
			Count:        cfg.queries,
			SideLength:   cfg.querySide,
			Distribution: workload.Proportional,
			Seed:         0x5eed,
		})
		if err != nil {
			return nil, err
		}
		in.standing = qs
	}
	in.sampled = rng.New(0x5a11).Perm(cfg.queries)[:cfg.sampled] // the same sample at every seed
	// Probes stop one batch period early: the gateway's last batch leaves
	// then, and a probe due later would never be sent.
	in.probes = probeSchedule(seed^0x9b0e, cfg.probeRate, 0, seconds-cfg.stepEvery, cfg.firstProbe(), cfg.probes)
	if cfg.reregs > 0 {
		in.buildReregs(rng.New(0x4e9e), seed, seconds)
	}
	return in, nil
}

// tiling covers space with n = k×k square queries. On serve-flash the
// crowd's hotspot moves with the seed; a tiling watches it the same way
// wherever it lands.
func tiling(space geo.Rect, n int) []geo.Rect {
	k := int(math.Round(math.Sqrt(float64(n))))
	w, h := space.Width()/float64(k), space.Height()/float64(k)
	qs := make([]geo.Rect, 0, k*k)
	for y := 0; y < k; y++ {
		for x := 0; x < k; x++ {
			x0, y0 := space.MinX+float64(x)*w, space.MinY+float64(y)*h
			qs = append(qs, geo.NewRect(x0, y0, x0+w, y0+h))
		}
	}
	return qs
}

// registrations returns the initial query registrations in the order
// they are sent, which is the order the server pushes their results.
func (in *serveInputs) registrations() []wire.Query {
	cfg := in.cfg
	qs := []wire.Query{{ID: cfg.probeQuery(), Rect: cfg.probeRect()}}
	for i, q := range in.standing {
		qs = append(qs, wire.Query{ID: uint32(i), Rect: q})
	}
	for i, rr := range in.reregRects {
		qs = append(qs, wire.Query{ID: cfg.firstRereg() + uint32(i), Rect: rr[0]})
	}
	return qs
}

// buildReregs places each re-registering query's two disjoint rects (away
// from the probe rect) from r and schedules the seed's alternating moves
// between them.
func (in *serveInputs) buildReregs(r *rng.Rand, seed uint64, seconds float64) {
	cfg := in.cfg
	side := cfg.querySide
	lo, hi := 300+side/2, cfg.side-2*side
	for i := 0; i < cfg.reregs; i++ {
		a := geo.Square(geo.Point{X: r.Range(lo, hi), Y: r.Range(lo, hi)}, side)
		b := geo.Square(geo.Point{X: a.Center().X + side, Y: a.Center().Y}, side*0.9)
		in.reregRects = append(in.reregRects, [2]geo.Rect{a, b})
	}
	ts := poissonTimes(seed^0x4e9e, cfg.reregRate, 0.2, seconds)
	for i, t := range ts {
		q := i % cfg.reregs
		to := (i/cfg.reregs + 1) % 2 // every id starts registered on rect 0
		in.reregs = append(in.reregs, reregistration{
			Due:      t,
			ID:       cfg.firstRereg() + uint32(q),
			Rect:     in.reregRects[q][to],
			Want:     cfg.firstMarker() + uint32(2*q+to),
			Unwanted: cfg.firstMarker() + uint32(2*q+1-to),
		})
	}
}

// truthAt returns each sampled query's true membership over positions.
func (in *serveInputs) truthAt(pos []geo.Point) [][]int {
	if in.grid == nil {
		in.grid = newPointGrid(in.space, in.cfg.querySide/2)
	}
	in.grid.fill(pos)
	out := make([][]int, len(in.sampled))
	for i, qi := range in.sampled {
		out[i] = in.grid.members(in.standing[qi], pos)
	}
	return out
}

// compileAssignment turns a broadcast into the node-side region index.
func compileAssignment(a wire.Assignment) *mobilenode.Compiled {
	ba := &basestation.Assignment{DefaultDelta: a.DefaultDelta}
	for _, e := range a.Entries {
		ba.Regions = append(ba.Regions, e.Rect())
		ba.Deltas = append(ba.Deltas, e.Delta)
	}
	return mobilenode.Compile(ba)
}
