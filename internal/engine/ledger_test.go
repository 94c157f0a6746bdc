package engine_test

import (
	"fmt"
	"testing"

	"lira/internal/engine"
	"lira/internal/rng"
)

// TestLedgerConservationDifferential pins the engine half of the record-
// conservation ledger across seeds: every update offered to the input
// queue is eventually accounted for
// as exactly one of applied, dropped, or still queued —
//
//	Arrived == Applied + Dropped + QueueLen
//
// — at every observation point in single-caller use, not just at
// quiescence. The workload forces all three fates: a small queue bound
// overflows under bursts (drops), partial drains leave residue (queued),
// and the rest lands in the motion table (applied). Ingest is exercised
// through all three paths the network layer uses (single, batch,
// columnar). Subtest names keep the K1_ (one shard) prefix they had when
// a second engine ran beside this one, so test IDs stay stable.
func TestLedgerConservationDifferential(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		t.Run(fmt.Sprintf("K1_seed%d", seed), func(t *testing.T) {
			cfg := baseConfig()
			cfg.QueueSize = 64 // small bound: bursts must shed
			eng, err := engine.New(cfg, 1)
			if err != nil {
				t.Fatal(err)
			}
			w := newWorkload(seed, cfg.Nodes)
			r := rng.New(seed).Split(7)

			check := func(where string) {
				t.Helper()
				arrived, applied, dropped := eng.Arrived(), eng.Applied(), eng.Dropped()
				queued := int64(eng.QueueLen())
				if arrived != applied+dropped+queued {
					t.Fatalf("%s: conservation violated: arrived=%d != applied=%d + dropped=%d + queued=%d",
						where, arrived, applied, dropped, queued)
				}
			}

			for round := 0; round < 40; round++ {
				ups := w.step(float64(round))
				switch round % 3 {
				case 0: // single-record path
					for _, u := range ups {
						eng.IngestShedOldest(u)
					}
				case 1: // batch path
					eng.IngestShedOldestBatch(ups)
				case 2: // columnar path (what decoded wire batches feed)
					nodes := make([]uint32, len(ups))
					xs := make([]float64, len(ups))
					ys := make([]float64, len(ups))
					vxs := make([]float64, len(ups))
					vys := make([]float64, len(ups))
					times := make([]float64, len(ups))
					for i, u := range ups {
						nodes[i] = uint32(u.Node)
						xs[i], ys[i] = u.Report.Pos.X, u.Report.Pos.Y
						vxs[i], vys[i] = u.Report.Vel.X, u.Report.Vel.Y
						times[i] = u.Report.Time
					}
					eng.IngestShedOldestColumns(nodes, xs, ys, vxs, vys, times)
				}
				check(fmt.Sprintf("post-ingest round %d", round))
				// Partial drains leave a queued residue some rounds;
				// others drain fully.
				if r.Bool(0.5) {
					eng.Drain(int(r.Intn(20)))
				} else {
					eng.Drain(-1)
				}
				check(fmt.Sprintf("post-drain round %d", round))
			}

			eng.Drain(-1)
			check("quiescence")
			if eng.QueueLen() != 0 {
				t.Fatalf("queue not empty after full drain: %d", eng.QueueLen())
			}
			if eng.Dropped() == 0 {
				t.Fatalf("workload never overflowed the queue; the test lost its teeth")
			}
		})
	}
}
