// Package statgrid implements the α×α statistics grid of §3.2.1 — the only
// data structure the LIRA load shedder maintains.
//
// For each grid cell c_{i,j} the grid stores the average number of mobile
// nodes n_{i,j}, the (fractionally counted) number of queries m_{i,j}, and
// the average node speed s_{i,j}. The grid is populated either from full
// position streams or from samples; per the paper, maintenance is O(1) per
// observed update.
package statgrid

import (
	"fmt"

	"lira/internal/geo"
	"lira/internal/par"
)

// Grid is the statistics grid. It accumulates node observations over any
// number of sampling rounds and holds the current query census.
type Grid struct {
	space geo.Rect
	alpha int

	samples   int       // number of Observe rounds folded in
	sumCount  []float64 // Σ over rounds of node count per cell
	sumSpeed  []float64 // Σ over all observed nodes of speed per cell
	obsNodes  []float64 // total node observations per cell
	queries   []float64 // fractional query count per cell
	totalN    float64   // nodes in the most recent round (for Totals)
	totalM    float64   // Σ queries (fractional, inside the space)
	meanSpeed float64   // global mean observed speed, fallback for empty cells
	sumAllSp  float64
	obsAll    float64

	// fold holds the per-shard accumulators of the parallel Observe path,
	// allocated lazily and reused across rounds.
	fold []foldShard
}

// foldShard is one shard's partial of a parallel Observe round. The dense
// count/speed arrays are kept zeroed between rounds via the touched list,
// so a round costs O(points/shard) regardless of α.
type foldShard struct {
	count, speed []float64
	touched      []int32
	sumSp, obs   float64
}

// observeChunk is the fixed shard size of the parallel Observe fold. The
// decomposition depends only on the input length (see package par), so the
// fold is bit-reproducible at any worker count; inputs of at most one chunk
// take the historical serial path.
const observeChunk = 4096

// New returns an empty grid with alpha cells per side over space. alpha
// must be positive; the paper uses powers of two so the quad-tree in
// GRIDREDUCE nests exactly, but the grid itself accepts any positive alpha.
func New(space geo.Rect, alpha int) *Grid {
	if alpha <= 0 {
		panic(fmt.Sprintf("statgrid: non-positive alpha %d", alpha))
	}
	if space.Empty() {
		panic("statgrid: empty space")
	}
	cells := alpha * alpha
	return &Grid{
		space:    space,
		alpha:    alpha,
		sumCount: make([]float64, cells),
		sumSpeed: make([]float64, cells),
		obsNodes: make([]float64, cells),
		queries:  make([]float64, cells),
	}
}

// Alpha returns the number of cells per side.
func (g *Grid) Alpha() int { return g.alpha }

// Space returns the monitored space.
func (g *Grid) Space() geo.Rect { return g.space }

// CellIndex returns the (column, row) of the cell containing p. Points
// outside the space are clamped to the border cells.
func (g *Grid) CellIndex(p geo.Point) (int, int) {
	i := int((p.X - g.space.MinX) / g.space.Width() * float64(g.alpha))
	j := int((p.Y - g.space.MinY) / g.space.Height() * float64(g.alpha))
	return clampInt(i, 0, g.alpha-1), clampInt(j, 0, g.alpha-1)
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// CellRect returns the rectangle of cell (i, j).
func (g *Grid) CellRect(i, j int) geo.Rect {
	w := g.space.Width() / float64(g.alpha)
	h := g.space.Height() / float64(g.alpha)
	return geo.Rect{
		MinX: g.space.MinX + float64(i)*w,
		MinY: g.space.MinY + float64(j)*h,
		MaxX: g.space.MinX + float64(i+1)*w,
		MaxY: g.space.MinY + float64(j+1)*h,
	}
}

// Observe folds one sampling round of node positions and speeds into the
// grid. positions and speeds must have equal length. Cell node counts are
// averaged across rounds; speeds are averaged across all observations.
//
// Rounds larger than one fold chunk are sharded across goroutines with
// per-shard accumulators merged in shard order, so the result is a pure
// function of the inputs — identical at any GOMAXPROCS.
func (g *Grid) Observe(positions []geo.Point, speeds []float64) {
	if len(positions) != len(speeds) {
		panic("statgrid: positions and speeds length mismatch")
	}
	if shards := par.Chunks(len(positions), observeChunk); shards > 1 {
		g.observeSharded(positions, speeds, shards)
	} else {
		for k, p := range positions {
			i, j := g.CellIndex(p)
			c := j*g.alpha + i
			g.sumCount[c]++
			g.sumSpeed[c] += speeds[k]
			g.obsNodes[c]++
			g.sumAllSp += speeds[k]
			g.obsAll++
		}
	}
	g.samples++
	g.totalN = float64(len(positions))
	if g.obsAll > 0 {
		g.meanSpeed = g.sumAllSp / g.obsAll
	}
}

// observeSharded is the parallel Observe fold: each shard accumulates a
// private partial over its fixed index range, then partials merge into the
// grid in shard order. Within a shard speeds sum in index order and each
// cell receives one contribution per shard, so the summation tree depends
// only on the input length — never on scheduling.
func (g *Grid) observeSharded(positions []geo.Point, speeds []float64, shards int) {
	for len(g.fold) < shards {
		cells := g.alpha * g.alpha
		g.fold = append(g.fold, foldShard{
			count: make([]float64, cells),
			speed: make([]float64, cells),
		})
	}
	par.ForChunks(len(positions), observeChunk, func(shard, lo, hi int) {
		f := &g.fold[shard]
		f.sumSp, f.obs = 0, 0
		f.touched = f.touched[:0]
		for k := lo; k < hi; k++ {
			i, j := g.CellIndex(positions[k])
			c := int32(j*g.alpha + i)
			if f.count[c] == 0 {
				f.touched = append(f.touched, c)
			}
			f.count[c]++
			f.speed[c] += speeds[k]
			f.sumSp += speeds[k]
			f.obs++
		}
	})
	for s := 0; s < shards; s++ {
		f := &g.fold[s]
		for _, c := range f.touched {
			g.sumCount[c] += f.count[c]
			g.sumSpeed[c] += f.speed[c]
			g.obsNodes[c] += f.count[c]
			f.count[c], f.speed[c] = 0, 0
		}
		g.sumAllSp += f.sumSp
		g.obsAll += f.obs
	}
}

// ResetObservations clears the node statistics (but not the query census),
// starting a fresh measurement window.
func (g *Grid) ResetObservations() {
	for i := range g.sumCount {
		g.sumCount[i] = 0
		g.sumSpeed[i] = 0
		g.obsNodes[i] = 0
	}
	g.samples = 0
	g.totalN = 0
	g.sumAllSp = 0
	g.obsAll = 0
	g.meanSpeed = 0
}

// SetQueries replaces the query census. Queries partially intersecting a
// cell are counted fractionally by the share of the query's area inside
// the cell, per §3.1. Queries wholly outside the space contribute nothing.
func (g *Grid) SetQueries(queries []geo.Rect) {
	for i := range g.queries {
		g.queries[i] = 0
	}
	g.totalM = 0
	w := g.space.Width() / float64(g.alpha)
	h := g.space.Height() / float64(g.alpha)
	for _, q := range queries {
		if q.Area() == 0 {
			continue
		}
		clip := q.Intersect(g.space)
		if clip.Empty() {
			continue
		}
		i0 := clampInt(int((clip.MinX-g.space.MinX)/w), 0, g.alpha-1)
		i1 := clampInt(int((clip.MaxX-g.space.MinX)/w), 0, g.alpha-1)
		j0 := clampInt(int((clip.MinY-g.space.MinY)/h), 0, g.alpha-1)
		j1 := clampInt(int((clip.MaxY-g.space.MinY)/h), 0, g.alpha-1)
		for i := i0; i <= i1; i++ {
			for j := j0; j <= j1; j++ {
				frac := q.OverlapFraction(g.CellRect(i, j))
				if frac > 0 {
					g.queries[j*g.alpha+i] += frac
					g.totalM += frac
				}
			}
		}
	}
}

// Cell returns the statistics of cell (i, j): average node count per
// round, fractional query count, and average node speed. Cells that never
// saw a node report the grid-wide mean speed so downstream consumers never
// divide by a meaningless zero speed.
func (g *Grid) Cell(i, j int) (n, m, s float64) {
	c := j*g.alpha + i
	if g.samples > 0 {
		n = g.sumCount[c] / float64(g.samples)
	}
	m = g.queries[c]
	if g.obsNodes[c] > 0 {
		s = g.sumSpeed[c] / g.obsNodes[c]
	} else {
		s = g.meanSpeed
	}
	return n, m, s
}

// Totals returns the total average node count and total fractional query
// count across the grid.
func (g *Grid) Totals() (n, m float64) {
	if g.samples == 0 {
		return 0, g.totalM
	}
	var sum float64
	for _, c := range g.sumCount {
		sum += c
	}
	return sum / float64(g.samples), g.totalM
}

// Samples returns the number of Observe rounds folded in.
func (g *Grid) Samples() int { return g.samples }
