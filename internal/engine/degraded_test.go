package engine_test

import (
	"testing"

	"lira/internal/cqserver"
	"lira/internal/engine"
	"lira/internal/rng"
)

// TestDegradedEvalEnginesAgree is the critical-rung differential: after
// the same warm-up as a never-degraded twin, an engine switched to
// degraded (prediction-only) evaluation must answer every query
// bit-identically to the subset rule "previous result filtered by
// predicted containment". Results may only shrink, and flipping
// degradation off must restore full evaluation: the engine agrees with
// its twin again.
func TestDegradedEvalEnginesAgree(t *testing.T) {
	for _, seed := range []uint64{1, 7} {
		cfg := baseConfig()
		eng, err := engine.New(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		twin, err := engine.New(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		queries := testQueries(rng.New(seed * 11))
		eng.RegisterQueries(queries)
		twin.RegisterQueries(queries)

		w := newWorkload(seed, cfg.Nodes)
		feed := func(ups []cqserver.Update) {
			for _, u := range ups {
				eng.Ingest(u)
				twin.Ingest(u)
			}
			eng.Drain(-1)
			twin.Drain(-1)
		}
		var now float64
		for step := 0; step < 5; step++ {
			now = float64(step)
			feed(w.step(now))
		}
		prev := copyResults(eng.Evaluate(now))

		// Critical rung: prediction-only evaluation at a later time — the
		// nodes have moved (predictively) but no updates were applied.
		eng.SetDegradedEval(true)
		for _, later := range []float64{now + 1, now + 3, now + 9} {
			want := make([][]int, len(prev))
			for qi, ids := range prev {
				want[qi] = []int{}
				for _, id := range ids {
					if p, ok := eng.PredictedPosition(id, later); ok && queries[qi].ContainsClosed(cfg.Space.ClampPoint(p)) {
						want[qi] = append(want[qi], id)
					}
				}
			}
			got := eng.Evaluate(later)
			if !equalResults(got, want) {
				t.Fatalf("seed %d t=%v: degraded result is not the filtered previous result:\n got=%v\nwant=%v", seed, later, got, want)
			}
			prev = copyResults(got) // the next degraded round filters this one
		}

		// Recovery: degradation off restores normal evaluation, and the
		// engine agrees with its twin again (the index catches back up).
		eng.SetDegradedEval(false)
		feed(w.step(now + 10))
		re := eng.Evaluate(now + 10)
		rt := twin.Evaluate(now + 10)
		if !equalResults(re, rt) {
			t.Fatalf("seed %d: engine disagrees with its twin after recovery:\n eng=%v\ntwin=%v", seed, re, rt)
		}
	}
}

func copyResults(rs [][]int) [][]int {
	out := make([][]int, len(rs))
	for i, ids := range rs {
		out[i] = append([]int{}, ids...)
	}
	return out
}
