package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one recorded call into a layer: its name, the layer it is
// charged to, when it ran (nanoseconds from the tracer's origin), the
// span that caused it (-1 for a root), and how many items it handled.
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Items  int64  `json:"items"`
}

// tracer keeps spans in memory. A disabled tracer records nothing, so the
// same replay code runs traced and untraced and the difference in wall
// time is the tracing overhead.
type tracer struct {
	on     bool
	origin time.Time
	spans  []span
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, origin: time.Now()}
}

// begin opens a span and returns its handle (-1 when disabled).
func (t *tracer) begin(name, layer string, parent int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Layer: layer, Start: int64(time.Since(t.origin)), Parent: parent})
	return len(t.spans) - 1
}

// end closes span i, recording the items it handled.
func (t *tracer) end(i int, items int64) {
	if i < 0 {
		return
	}
	t.spans[i].End = int64(time.Since(t.origin))
	t.spans[i].Items = items
}

// layerStats is one layer's share of a traced replay.
type layerStats struct {
	Self  time.Duration // span time not covered by child spans
	Calls int
	Items int64
}

// byLayer charges each span's self time — its duration minus the part
// its children cover — to its layer. Children never overlap (the replay
// is one goroutine), so self times of all spans sum to the roots' time.
func (t *tracer) byLayer() map[string]*layerStats {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]*layerStats{}
	for i, s := range t.spans {
		ls := out[s.Layer]
		if ls == nil {
			ls = &layerStats{}
			out[s.Layer] = ls
		}
		ls.Self += time.Duration(s.End - s.Start - child[i])
		ls.Calls++
		ls.Items += s.Items
	}
	return out
}

// durations returns the durations (ms) of every span with the given name.
func (t *tracer) durations(name string) []float64 {
	var ds []float64
	for _, s := range t.spans {
		if s.Name == name {
			ds = append(ds, float64(s.End-s.Start)/1e6)
		}
	}
	return ds
}

// total sums the durations and items of every span with the given name.
func (t *tracer) total(name string) (time.Duration, int64, int) {
	var d time.Duration
	var items int64
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			d += time.Duration(s.End - s.Start)
			items += s.Items
			n++
		}
	}
	return d, items, n
}

// write stores the spans as JSON lines in the order they began, so a
// span's parent is the span on line parent (counting from 0).
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
