package roadnet

import "sort"

// TopVolumeEdges returns the ids of the k highest-volume roads, one id per
// road (the even-numbered twin of each directed pair). Ties break toward
// the lower id, so the result is deterministic for a given network. The
// scenario catalog uses it to pick which arteries a closure event severs.
func (n *Network) TopVolumeEdges(k int) []int {
	ids := make([]int, 0, len(n.Edges)/2)
	for i := 0; i < len(n.Edges); i += 2 {
		ids = append(ids, i)
	}
	sort.Slice(ids, func(a, b int) bool {
		va, vb := n.Edges[ids[a]].Volume, n.Edges[ids[b]].Volume
		if va != vb {
			return va > vb
		}
		return ids[a] < ids[b]
	})
	if k > len(ids) {
		k = len(ids)
	}
	if k < 0 {
		k = 0
	}
	return ids[:k]
}

// WithClosures returns a clone of the network with the given roads closed:
// each listed edge and its reverse twin get zero traffic volume, so routing
// (NextEdge, MostLikelyNext, SampleEdge) steers around them while the
// geometry stays identical — edge ids, node positions, and lengths are
// unchanged. Cars already on a closed edge finish it and divert at the next
// intersection; a node whose every exit is closed forces a U-turn, exactly
// like a real roadblock. The receiver is not modified. Out-of-range ids are
// ignored.
func (n *Network) WithClosures(ids []int) *Network {
	closed := &Network{
		Space: n.Space,
		Nodes: n.Nodes, // geometry and adjacency are shared, never mutated
		Edges: make([]Edge, len(n.Edges)),
		dirs:  n.dirs,
	}
	copy(closed.Edges, n.Edges)
	for _, id := range ids {
		if id < 0 || id >= len(closed.Edges) {
			continue
		}
		closed.Edges[id].Volume = 0
		closed.Edges[closed.Edges[id].Reverse].Volume = 0
	}
	closed.buildCDF()
	return closed
}
