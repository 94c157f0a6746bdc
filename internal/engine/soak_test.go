package engine_test

import (
	"runtime"
	"testing"

	"lira/internal/cqserver"
	"lira/internal/engine"
	"lira/internal/geo"
	"lira/internal/motion"
	"lira/internal/rng"
)

// TestSoakFlatHeap is the memory-model acceptance gate at system scale:
// after warmup, a sustained ingest → drain → evaluate load (100k updates)
// must leave the live heap where it found it. The AllocsPerRun gates
// prove the hot paths allocate nothing per operation; this soak proves
// nothing *accumulates* either — no leaked buffers, no unbounded index
// growth, no result-slice churn surviving collection. The subtest keeps
// its k=1 (shard count) name from when a second engine ran beside this
// one, so its test ID stays stable.
func TestSoakFlatHeap(t *testing.T) {
	const (
		nodes      = 1500
		perCycle   = 500
		cycles     = 200
		heapBound  = 1 << 20 // 1 MiB of residual growth tolerated
		warmCycles = 20
	)
	t.Run("k=1", func(t *testing.T) {
		cfg := baseConfig()
		cfg.Nodes = nodes
		cfg.QueueSize = 4096
		eng, err := engine.New(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		eng.RegisterQueries(testQueries(rng.New(7).Split(99)))
		r := rng.New(7)
		ups := make([]cqserver.Update, nodes)
		for i := range ups {
			ups[i] = cqserver.Update{Node: i, Report: motion.Report{
				Pos: geo.Point{X: r.Range(0, 1000), Y: r.Range(0, 1000)},
				Vel: geo.Vector{X: r.Range(-10, 10), Y: r.Range(-10, 10)},
			}}
		}
		now, next := 1.0, 0
		cycle := func() {
			for j := 0; j < perCycle; j++ {
				u := ups[next%len(ups)]
				u.Report.Time = now
				next++
				eng.IngestShedOldest(u)
			}
			eng.Drain(-1)
			eng.Evaluate(now)
			now += 0.1
		}
		for i := 0; i < warmCycles; i++ {
			cycle()
		}
		runtime.GC()
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < cycles; i++ {
			cycle()
		}
		runtime.GC()
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		delta := int64(after.HeapAlloc) - int64(before.HeapAlloc)
		if delta > heapBound {
			t.Errorf("heap grew %d bytes over %d updates, bound %d",
				delta, cycles*perCycle, heapBound)
		}
	})
}
