// Package mobilenode implements the third layer of the LIRA architecture:
// the mobile node. A node stores the shedding-region subset broadcast by
// its current base station, locates its containing region with a tiny 5×5
// grid index (§4.3.2, "Mobile Node Side Cost"), dead-reckons its position
// with the region's update throttler as the inaccuracy threshold, and
// refreshes its stored subset on hand-off.
package mobilenode

import (
	"lira/internal/basestation"
	"lira/internal/geo"
	"lira/internal/motion"
)

// IndexSide is the side cell count of the node-side region lookup index.
// The paper's nodes use a 5×5 grid.
const IndexSide = 5

// Compiled is a station assignment compiled into the node-side lookup
// index. One Compiled is shared by every node camped on the station.
type Compiled struct {
	assignment *basestation.Assignment
	bounds     geo.Rect
	// cells[c] lists the indices of assignment regions intersecting grid
	// cell c.
	cells [IndexSide * IndexSide][]int32
}

// Compile builds the node-side index for a station assignment.
func Compile(a *basestation.Assignment) *Compiled {
	c := &Compiled{assignment: a}
	if len(a.Regions) == 0 {
		return c
	}
	b := a.Regions[0]
	for _, r := range a.Regions[1:] {
		if r.MinX < b.MinX {
			b.MinX = r.MinX
		}
		if r.MinY < b.MinY {
			b.MinY = r.MinY
		}
		if r.MaxX > b.MaxX {
			b.MaxX = r.MaxX
		}
		if r.MaxY > b.MaxY {
			b.MaxY = r.MaxY
		}
	}
	c.bounds = b
	w := b.Width() / IndexSide
	h := b.Height() / IndexSide
	for j := 0; j < IndexSide; j++ {
		for i := 0; i < IndexSide; i++ {
			cell := geo.Rect{
				MinX: b.MinX + float64(i)*w,
				MinY: b.MinY + float64(j)*h,
				MaxX: b.MinX + float64(i+1)*w,
				MaxY: b.MinY + float64(j+1)*h,
			}
			for ri, r := range a.Regions {
				if r.Intersects(cell) {
					c.cells[j*IndexSide+i] = append(c.cells[j*IndexSide+i], int32(ri))
				}
			}
		}
	}
	return c
}

// RegionCount returns the number of shedding regions the node stores.
func (c *Compiled) RegionCount() int { return len(c.assignment.Regions) }

// DeltaAt returns the update throttler of the shedding region containing
// p, falling back to the assignment's default for positions outside every
// stored region.
func (c *Compiled) DeltaAt(p geo.Point) float64 {
	a := c.assignment
	if len(a.Regions) == 0 {
		return a.DefaultDelta
	}
	// Clamp into the bounds with plain comparisons; the cell index is
	// the one geo.Rect.ClampPoint would give, without the NaN-aware
	// math.Min/math.Max calls.
	b := &c.bounds
	x, y := p.X, p.Y
	if x < b.MinX {
		x = b.MinX
	} else if x > b.MaxX {
		x = b.MaxX
	}
	if y < b.MinY {
		y = b.MinY
	} else if y > b.MaxY {
		y = b.MaxY
	}
	i := int((x - b.MinX) / b.Width() * IndexSide)
	j := int((y - b.MinY) / b.Height() * IndexSide)
	if i >= IndexSide {
		i = IndexSide - 1
	}
	if j >= IndexSide {
		j = IndexSide - 1
	}
	for _, ri := range c.cells[j*IndexSide+i] {
		if a.Regions[ri].Contains(p) {
			return a.Deltas[ri]
		}
	}
	// Closed-boundary second chance for points on shared region edges.
	for _, ri := range c.cells[j*IndexSide+i] {
		if a.Regions[ri].ContainsClosed(p) {
			return a.Deltas[ri]
		}
	}
	return a.DefaultDelta
}

// Node is one mobile node: its dead reckoner plus the region subset of its
// current station.
type Node struct {
	ID int

	reckoner motion.DeadReckoner
	station  int // current station id, -1 when uncovered
	regions  *Compiled

	// Updates counts the position updates the node has sent.
	Updates int64
	// Handoffs counts base-station changes.
	Handoffs int64
}

// NewNode returns a node with no station and no motion model yet.
func NewNode(id int) *Node { return &Node{ID: id, station: -1} }

// Station returns the node's current station id (-1 when uncovered).
func (n *Node) Station() int { return n.station }

// Install sets the node's station and its compiled region subset. It
// serves both paths of §2.2: a reconfiguration broadcast from the current
// station (same id, fresh assignment) and a hand-off to a new station
// (which increments the hand-off counter).
func (n *Node) Install(station int, regions *Compiled) {
	if station != n.station && n.station != -1 {
		n.Handoffs++
	}
	n.station = station
	n.regions = regions
}

// Drop discards the node's station assignment: until a fresh assignment
// is installed, Delta reverts to the conservative fallback Δ⊢ — the same
// state as before the first broadcast arrived (§2.2). A disconnected
// node calls this so its reporting degrades toward more updates, never
// toward silent inaccuracy. The hand-off counter is untouched: a later
// reinstall of the same station is a resync, not a hand-off.
func (n *Node) Drop() {
	n.station = -1
	n.regions = nil
}

// Start records the node's first report (always transmitted) and returns
// it.
func (n *Node) Start(pos geo.Point, vel geo.Vector, t float64) motion.Report {
	n.Updates++
	return n.reckoner.Start(pos, vel, t)
}

// Delta returns the inaccuracy threshold in force at position p: the
// throttler of the containing shedding region, or the fallback when the
// node has no station data.
func (n *Node) Delta(p geo.Point, fallback float64) float64 {
	if n.regions == nil {
		return fallback
	}
	return n.regions.DeltaAt(p)
}

// Observe runs one dead-reckoning check with the region-dependent
// threshold. It returns the new report when one must be sent.
func (n *Node) Observe(pos geo.Point, vel geo.Vector, t, fallback float64) (motion.Report, bool) {
	rep, send := n.reckoner.Observe(pos, vel, t, n.Delta(pos, fallback))
	if send {
		n.Updates++
	}
	return rep, send
}
