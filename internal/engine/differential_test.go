package engine_test

import (
	"math"
	"testing"

	"lira/internal/controlplane"
	"lira/internal/cqserver"
	"lira/internal/engine"
	"lira/internal/fmodel"
	"lira/internal/geo"
	"lira/internal/motion"
	"lira/internal/partition"
	"lira/internal/queue"
	"lira/internal/rng"
	"lira/internal/statgrid"
	"lira/internal/throtloop"
	"lira/internal/throttler"
)

func space() geo.Rect { return geo.Rect{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000} }

func baseConfig() cqserver.Config {
	curve := fmodel.Hyperbolic(5, 100, 95)
	return cqserver.Config{
		Space:     space(),
		Nodes:     120,
		L:         13,
		Curve:     curve,
		QueueSize: 100000,
		Fairness:  throttler.NoFairness(curve),
	}
}

// workload is the deterministic bouncing-node simulation both sides of a
// differential run are fed from.
type workload struct {
	r      *rng.Rand
	pos    []geo.Point
	vel    []geo.Vector
	speeds []float64
}

func newWorkload(seed uint64, nodes int) *workload {
	w := &workload{
		r:      rng.New(seed),
		pos:    make([]geo.Point, nodes),
		vel:    make([]geo.Vector, nodes),
		speeds: make([]float64, nodes),
	}
	sp := space()
	for i := range w.pos {
		w.pos[i] = geo.Point{X: w.r.Range(sp.MinX, sp.MaxX), Y: w.r.Range(sp.MinY, sp.MaxY)}
		w.vel[i] = geo.Vector{X: w.r.Range(-40, 40), Y: w.r.Range(-40, 40)}
		w.speeds[i] = math.Hypot(w.vel[i].X, w.vel[i].Y)
	}
	return w
}

func (w *workload) step(t float64) []cqserver.Update {
	sp := space()
	var ups []cqserver.Update
	for i := range w.pos {
		w.pos[i].X += w.vel[i].X
		w.pos[i].Y += w.vel[i].Y
		if w.pos[i].X < sp.MinX || w.pos[i].X > sp.MaxX {
			w.vel[i].X = -w.vel[i].X
			w.pos[i].X += 2 * w.vel[i].X
		}
		if w.pos[i].Y < sp.MinY || w.pos[i].Y > sp.MaxY {
			w.vel[i].Y = -w.vel[i].Y
			w.pos[i].Y += 2 * w.vel[i].Y
		}
		w.pos[i] = sp.ClampPoint(w.pos[i])
		w.speeds[i] = math.Hypot(w.vel[i].X, w.vel[i].Y)
		if w.r.Bool(0.4) {
			ups = append(ups, cqserver.Update{
				Node:   i,
				Report: motion.Report{Pos: w.pos[i], Vel: w.vel[i], Time: t},
			})
		}
	}
	return ups
}

func testQueries(r *rng.Rand) []geo.Rect {
	sp := space()
	qs := []geo.Rect{sp}
	for i := 0; i < 8; i++ {
		x0, y0 := r.Range(sp.MinX, sp.MaxX), r.Range(sp.MinY, sp.MaxY)
		qs = append(qs, geo.Rect{
			MinX: x0, MinY: y0,
			MaxX: math.Min(sp.MaxX, x0+r.Range(20, 400)),
			MaxY: math.Min(sp.MaxY, y0+r.Range(20, 400)),
		})
	}
	return qs
}

func equalResults(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// legacyPipeline is the pre-refactor adaptation loop, hand-wired exactly
// as the engines used to inline it: a privately owned THROTLOOP
// controller fed from the engine's rate window, followed by direct
// GRIDREDUCE and GREEDYINCREMENT calls over the engine's statistics
// grid. The differential tests drive it next to the control-plane path
// to prove the refactor changed no decision bit.
type legacyPipeline struct {
	cfg   cqserver.Config
	loop  *throtloop.Controller
	rates func(window float64) (lambda, mu float64)
	grid  func() *statgrid.Grid
}

func newLegacyPipeline(t *testing.T, eng engine.Engine, cfg cqserver.Config) *legacyPipeline {
	t.Helper()
	loop, err := throtloop.New(eng.QueueCap())
	if err != nil {
		t.Fatal(err)
	}
	return &legacyPipeline{cfg: cfg, loop: loop, rates: eng.Queue().Rates, grid: eng.StatsGrid}
}

func (lp *legacyPipeline) adaptAuto(window float64) (float64, *throttler.Result, error) {
	lambda, mu := lp.rates(window)
	z := lp.loop.Observe(queue.Utilization(lambda, mu))
	part, err := partition.GridReduce(lp.grid(), partition.Config{
		L: lp.cfg.L, Z: z, Curve: lp.cfg.Curve, ProtectQueries: lp.cfg.ProtectQueries,
	})
	if err != nil {
		return z, nil, err
	}
	res, err := throttler.SetThrottlers(part.Stats(), lp.cfg.Curve, throttler.Options{
		Z:        z,
		Fairness: lp.cfg.Fairness,
		UseSpeed: lp.cfg.UseSpeed,
	})
	return z, res, err
}

// TestControlPlaneMatchesLegacyPipeline is the refactor-equivalence
// suite: for each seed, two identically-fed engines
// adapt side by side — one through the post-refactor control plane
// (AdaptAuto), one through the hand-wired pre-refactor pipeline — and
// every adaptation round's z, Δᵢ table, and BudgetMet must be
// bit-identical, with query results compared at every tick.
func TestControlPlaneMatchesLegacyPipeline(t *testing.T) {
	const (
		nodes  = 120
		ticks  = 24
		every  = 8 // adaptation period in ticks
		window = float64(every)
	)
	for _, seed := range []uint64{1, 2, 3} {
		cfg := baseConfig()
		cand, err := engine.New(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := engine.New(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		legacy := newLegacyPipeline(t, ref, cfg)
		qs := testQueries(rng.New(seed).Split(99))
		cand.RegisterQueries(qs)
		ref.RegisterQueries(qs)
		w := newWorkload(seed, nodes)
		var rounds int
		for tick := 1; tick <= ticks; tick++ {
			now := float64(tick)
			for _, u := range w.step(now) {
				if !cand.Ingest(u) || !ref.Ingest(u) {
					t.Fatalf("seed %d: overflow in no-overflow regime", seed)
				}
			}
			cand.Drain(-1)
			ref.Drain(-1)
			cand.ObserveStatistics(w.pos, w.speeds)
			ref.ObserveStatistics(w.pos, w.speeds)
			cand.ObserveBusy(0.5)
			ref.ObserveBusy(0.5)
			if !equalResults(cand.Evaluate(now), ref.Evaluate(now)) {
				t.Fatalf("seed %d tick %d: query results diverged",
					seed, tick)
			}
			if tick%every != 0 {
				continue
			}
			rounds++
			ca, err := cand.AdaptAuto(window)
			if err != nil {
				t.Fatal(err)
			}
			lz, lres, err := legacy.adaptAuto(window)
			if err != nil {
				t.Fatal(err)
			}
			if ca.Z != lz {
				t.Fatalf("seed %d round %d: z diverged: plane %v, legacy %v",
					seed, rounds, ca.Z, lz)
			}
			if ca.Z != cand.Throttle().Z() {
				t.Fatalf("seed %d round %d: adaptation z %v != controller z %v",
					seed, rounds, ca.Z, cand.Throttle().Z())
			}
			if len(ca.Deltas) != len(lres.Deltas) {
				t.Fatalf("seed %d round %d: region count diverged: %d vs %d",
					seed, rounds, len(ca.Deltas), len(lres.Deltas))
			}
			for i := range ca.Deltas {
				if ca.Deltas[i] != lres.Deltas[i] {
					t.Fatalf("seed %d round %d: Δ[%d] diverged: plane %v, legacy %v",
						seed, rounds, i, ca.Deltas[i], lres.Deltas[i])
				}
			}
			if ca.BudgetMet != lres.BudgetMet {
				t.Fatalf("seed %d round %d: BudgetMet diverged", seed, rounds)
			}
		}
		if rounds != ticks/every {
			t.Fatalf("expected %d adaptation rounds, ran %d", ticks/every, rounds)
		}
	}
}

// TestPoliciesAgreeAcrossEngines pins that a policy's output is a pure
// function of the engine state: after identical warmup, every built-in
// policy produces the same partitioning size and bit-identical Δᵢ on two
// independent engine instances, each with its own policy instance, so
// no policy state leaks between engines.
func TestPoliciesAgreeAcrossEngines(t *testing.T) {
	const nodes, ticks = 120, 15
	cfg := baseConfig()
	warm := func(eng engine.Engine) {
		eng.RegisterQueries(testQueries(rng.New(21).Split(99)))
		w := newWorkload(21, nodes)
		for tick := 1; tick <= ticks; tick++ {
			now := float64(tick)
			for _, u := range w.step(now) {
				eng.Ingest(u)
			}
			eng.Drain(-1)
			eng.ObserveStatistics(w.pos, w.speeds)
		}
	}
	a, err := engine.New(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := engine.New(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	warm(a)
	warm(b)
	for _, pol := range controlplane.Policies() {
		// Stateful policies (hysteresis) must not be shared between
		// engines: give each its own instance so held state from one
		// engine's adaptations cannot leak into the other's.
		apol, _ := controlplane.NewPolicy(pol.Name())
		bpol, _ := controlplane.NewPolicy(pol.Name())
		a.ControlPlane().SetPolicy(apol)
		b.ControlPlane().SetPolicy(bpol)
		for _, z := range []float64{0.7, 0.4} {
			aa, err := a.Adapt(z)
			if err != nil {
				t.Fatalf("%s engine a: %v", pol.Name(), err)
			}
			ba, err := b.Adapt(z)
			if err != nil {
				t.Fatalf("%s engine b: %v", pol.Name(), err)
			}
			if len(aa.Deltas) != len(ba.Deltas) {
				t.Fatalf("%s z=%.1f: region count diverged: %d vs %d",
					pol.Name(), z, len(aa.Deltas), len(ba.Deltas))
			}
			for i := range aa.Deltas {
				if aa.Deltas[i] != ba.Deltas[i] {
					t.Fatalf("%s z=%.1f: Δ[%d] diverged: %v vs %v",
						pol.Name(), z, i, aa.Deltas[i], ba.Deltas[i])
				}
			}
			if aa.BudgetMet != ba.BudgetMet {
				t.Fatalf("%s z=%.1f: BudgetMet diverged", pol.Name(), z)
			}
		}
	}
}

// TestFactorySelection pins what engine.New builds for the shard counts
// it accepts (0 and 1): the engine cqserver.New builds from the same
// config, defaults included, evaluating the same workload to the same
// results.
func TestFactorySelection(t *testing.T) {
	cfg := baseConfig()
	for _, shards := range []int{0, 1} {
		eng, err := engine.New(cfg, shards)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		direct, err := cqserver.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if eng.QueueCap() != direct.QueueCap() {
			t.Fatalf("shards=%d: queue cap %d, cqserver.New %d", shards, eng.QueueCap(), direct.QueueCap())
		}
		qs := testQueries(rng.New(5).Split(99))
		eng.RegisterQueries(qs)
		direct.RegisterQueries(qs)
		w := newWorkload(5, 60)
		for tick := 1; tick <= 5; tick++ {
			now := float64(tick)
			for _, u := range w.step(now) {
				eng.Ingest(u)
				direct.Ingest(u)
			}
			eng.Drain(-1)
			direct.Drain(-1)
			if !equalResults(eng.Evaluate(now), direct.Evaluate(now)) {
				t.Fatalf("shards=%d tick %d: engine.New diverged from cqserver.New", shards, tick)
			}
		}
	}
}

// TestNewRejectsShards pins the one-engine contract: the shard count
// engine.New still takes selects nothing, and any count above 1 is an
// error rather than a silently unsharded engine.
func TestNewRejectsShards(t *testing.T) {
	cfg := baseConfig()
	for _, shards := range []int{2, 4} {
		if eng, err := engine.New(cfg, shards); err == nil || eng != nil {
			t.Fatalf("shards=%d: got engine %v, err %v; want an error", shards, eng, err)
		}
	}
}
