package main

import (
	"math"
	"sort"

	"lira/internal/geo"
	"lira/internal/metrics"
	"lira/internal/rng"
)

// quantiles summarizes a latency sample: the median, the 90th
// percentile, and the tail, where the tail is the highest percentile (at
// most p99) that still has at least ten samples beyond it.
type quantiles struct {
	N    int
	P50  float64
	P90  float64
	Tail float64
	// TailP is the percentile the tail was read at, in (0, 1]; it is 0.99
	// once the sample holds at least 1100 values.
	TailP float64
}

// summarize sorts xs in place and reads its quantiles by nearest rank.
// A sample too small to have ten values beyond any percentile reports
// its maximum as the tail, with TailP 1.
func summarize(xs []float64) quantiles {
	sort.Float64s(xs)
	q := quantiles{N: len(xs)}
	if len(xs) == 0 {
		return q
	}
	q.P50 = xs[nearestRank(0.5, len(xs))]
	q.P90 = xs[nearestRank(0.9, len(xs))]
	k := nearestRank(0.99, len(xs))
	if lim := len(xs) - 11; k > lim {
		k = lim
	}
	if k < 0 {
		k = len(xs) - 1
	}
	q.Tail = xs[k]
	q.TailP = float64(k+1) / float64(len(xs))
	return q
}

// nearestRank returns the index of the p-th percentile of n sorted values.
func nearestRank(p float64, n int) int {
	k := int(math.Ceil(p*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	return k
}

// weighted is a value observed count times.
type weighted struct {
	v     float64
	count int
}

// weightedQuantile returns the smallest value at or below which at least
// a share p of all counted observations lie.
func weightedQuantile(xs []weighted, p float64) float64 {
	sorted := append([]weighted(nil), xs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].v < sorted[j].v })
	total := 0
	for _, x := range sorted {
		total += x.count
	}
	seen := 0
	for _, x := range sorted {
		if seen += x.count; float64(seen) >= p*float64(total) {
			return x.v
		}
	}
	return 0
}

// median returns the nearest-rank median of xs without reordering it.
func median(xs []float64) float64 {
	return summarize(append([]float64(nil), xs...)).P50
}

// membersOf returns, ascending, the ids in [0, len(pos)) whose position
// lies inside r: the brute-force ground truth of one range query.
func membersOf(r geo.Rect, pos []geo.Point) []int {
	var ids []int
	for i, p := range pos {
		if r.Contains(p) {
			ids = append(ids, i)
		}
	}
	return ids
}

// pointGrid buckets positions into square cells so a range query visits
// only the cells it overlaps: the generator recomputes the sampled
// queries' truth every fleet step, over every node.
type pointGrid struct {
	space geo.Rect
	cell  float64
	side  int
	start []int32 // start[c]..start[c+1] index ids of cell c
	ids   []int32
}

func newPointGrid(space geo.Rect, cell float64) *pointGrid {
	side := int(math.Ceil(math.Max(space.Width(), space.Height()) / cell))
	return &pointGrid{space: space, cell: cell, side: side, start: make([]int32, side*side+1)}
}

func (g *pointGrid) cellOf(x, y float64) int {
	cx := min(max(int((x-g.space.MinX)/g.cell), 0), g.side-1)
	cy := min(max(int((y-g.space.MinY)/g.cell), 0), g.side-1)
	return cy*g.side + cx
}

// fill re-buckets pos (a counting sort by cell).
func (g *pointGrid) fill(pos []geo.Point) {
	clear(g.start)
	for _, p := range pos {
		g.start[g.cellOf(p.X, p.Y)+1]++
	}
	for c := 1; c < len(g.start); c++ {
		g.start[c] += g.start[c-1]
	}
	if cap(g.ids) < len(pos) {
		g.ids = make([]int32, len(pos))
	}
	g.ids = g.ids[:len(pos)]
	next := append([]int32(nil), g.start[:len(g.start)-1]...)
	for i, p := range pos {
		c := g.cellOf(p.X, p.Y)
		g.ids[next[c]] = int32(i)
		next[c]++
	}
}

// members returns the ids whose position lies inside r, ascending — the
// same set membersOf finds by scanning every position.
func (g *pointGrid) members(r geo.Rect, pos []geo.Point) []int {
	lo, hi := g.cellOf(r.MinX, r.MinY), g.cellOf(r.MaxX, r.MaxY)
	var ids []int
	for cy := lo / g.side; cy <= hi/g.side; cy++ {
		for cx := lo % g.side; cx <= hi%g.side; cx++ {
			c := cy*g.side + cx
			for _, id := range g.ids[g.start[c]:g.start[c+1]] {
				if r.Contains(pos[id]) {
					ids = append(ids, int(id))
				}
			}
		}
	}
	sort.Ints(ids)
	return ids
}

// scoreEC returns the containment error of one pushed result against the
// true membership, counting only ids below limit (probe and marker nodes
// sit above it and are checked elsewhere). ok is false when the true
// result is empty, where E^C is undefined.
func scoreEC(result []uint32, truth []int, limit int) (float64, bool) {
	got := make([]int, 0, len(result))
	for _, id := range result {
		if int(id) < limit {
			got = append(got, int(id))
		}
	}
	return metrics.ContainmentError(got, truth)
}

// contains reports whether id is in the result set.
func contains(result []uint32, id uint32) bool {
	for _, x := range result {
		if x == id {
			return true
		}
	}
	return false
}

// poissonTimes returns the arrival times in [start, end) of a Poisson
// process of the given rate, drawn from its own seeded stream.
func poissonTimes(seed uint64, rate, start, end float64) []float64 {
	r := rng.New(seed)
	var ts []float64
	for t := start + r.Exp(rate); t < end; t += r.Exp(rate) {
		ts = append(ts, t)
	}
	return ts
}

// probe is one scheduled report whose effect on a result the generator
// can predict: node jumps into (In) or out of the probe rect at Due.
type probe struct {
	Due  float64 // seconds after the schedule origin
	Node uint32
	In   bool
}

// probeSchedule assigns Poisson arrival times round-robin to nodes
// first..first+count-1, each node alternating in, out, in, … Round-robin
// keeps a node's consecutive probes about count/rate seconds apart, far
// beyond any latency limit, so a probe is resolved before the next one
// for its node is sent.
func probeSchedule(seed uint64, rate, start, end float64, first uint32, count int) []probe {
	ts := poissonTimes(seed, rate, start, end)
	ps := make([]probe, len(ts))
	for i, t := range ts {
		ps[i] = probe{Due: t, Node: first + uint32(i%count), In: (i/count)%2 == 0}
	}
	return ps
}

// probeMatcher resolves probes against the probe query's result frames:
// a probe is reflected by the first frame, received after it was due,
// whose membership of its node matches the jump; one still unreflected
// limit seconds after it was due is a miss.
type probeMatcher struct {
	probes []probe
	limit  float64
	next   int   // first probe not yet due at the last observation
	open   []int // due, unresolved probe indices
	// Latencies holds reflected probes' due-to-result times (seconds);
	// Missed counts probes never reflected within the limit.
	Latencies []float64
	Missed    int
}

func newProbeMatcher(ps []probe, limit float64) *probeMatcher {
	return &probeMatcher{probes: ps, limit: limit}
}

// observe folds one probe-query result received at time now (on the
// schedule's clock).
func (m *probeMatcher) observe(now float64, result []uint32) {
	for m.next < len(m.probes) && m.probes[m.next].Due <= now {
		m.open = append(m.open, m.next)
		m.next++
	}
	kept := m.open[:0]
	for _, i := range m.open {
		p := m.probes[i]
		switch {
		case contains(result, p.Node) == p.In:
			m.Latencies = append(m.Latencies, now-p.Due)
		case now-p.Due > m.limit:
			m.Missed++
		default:
			kept = append(kept, i)
		}
	}
	m.open = kept
}

// finish counts every probe due before end and still unresolved as
// missed. Probes due after end were never sent and are not counted.
func (m *probeMatcher) finish(end float64) {
	for m.next < len(m.probes) && m.probes[m.next].Due <= end {
		m.open = append(m.open, m.next)
		m.next++
	}
	m.Missed += len(m.open)
	m.open = nil
}

// sent returns the number of probes counted (reflected or missed).
func (m *probeMatcher) sent() int { return len(m.Latencies) + m.Missed }
