package experiment

import (
	"lira/internal/engine"
	"lira/internal/geo"
	"lira/internal/roadnet"
	"lira/internal/trace"
	"lira/internal/workload"
)

// referenceKey names one Δ⊢ reference run: every input the reference's
// queries, results, positions, and update counts depend on, and nothing
// else. Throttle fraction, policy, shedding-region and statistics
// parameters, engine sharding, station placement, and telemetry shape
// only the candidate, so runs that differ only in those share a key.
type referenceKey struct {
	// Environment identity.
	src      trace.Config
	net      *roadnet.Network
	space    geo.Rect
	minDelta float64
	dt       float64
	nodes    int

	// Run inputs, resolved (see RunConfig.resolve).
	workload     string
	workloadRate float64
	seed         uint64
	warmup       int
	duration     int
	evalEvery    int
	queryCount   int
	querySide    float64
	queryDist    workload.Distribution
}

// referenceKeyFor returns the reference key of a resolved cfg run on env.
func referenceKeyFor(env *Env, cfg RunConfig) referenceKey {
	return referenceKey{
		src:          env.Src.Config(),
		net:          env.Net,
		space:        env.Space,
		minDelta:     env.Cfg.MinDelta,
		dt:           env.Cfg.Dt,
		nodes:        env.Cfg.Nodes,
		workload:     cfg.Workload,
		workloadRate: cfg.WorkloadRate,
		seed:         cfg.Seed,
		warmup:       cfg.WarmupTicks,
		duration:     cfg.DurationTicks,
		evalEvery:    cfg.EvalEvery,
		queryCount:   cfg.QueryCount,
		querySide:    cfg.QuerySide,
		queryDist:    cfg.QueryDist,
	}
}

// reference is a recorded Δ⊢ reference run: what the candidate is scored
// against, kept so later runs with the same key replay it instead of
// re-simulating it. A stored reference is never mutated.
type reference struct {
	key     referenceKey
	queries []geo.Rect
	ticks   []referenceTick
	// updates is the run's final ReferenceUpdates.
	updates int64
}

// referenceTick is the reference's state at one evaluation instant.
type referenceTick struct {
	// results holds R*(q) per query, ids ascending.
	results [][]int
	// pos holds p*(o) per node. Every node reports at the start of
	// measurement, so the reference knows every position.
	pos []geo.Point
	// updates is ReferenceUpdates as of this instant.
	updates int64
}

// recordTick evaluates the reference at now and copies out what the
// metrics read: the results into one backing array, and every node's
// predicted position.
func recordTick(srv engine.Engine, now float64, nodes int, updates int64) referenceTick {
	results := srv.Evaluate(now)
	total := 0
	for _, r := range results {
		total += len(r)
	}
	ids := make([]int, 0, total)
	rt := referenceTick{
		results: make([][]int, len(results)),
		pos:     make([]geo.Point, nodes),
		updates: updates,
	}
	for q, r := range results {
		ids = append(ids, r...)
		rt.results[q] = ids[len(ids)-len(r) : len(ids) : len(ids)]
	}
	for id := range rt.pos {
		rt.pos[id], _ = srv.PredictedPosition(id, now)
	}
	return rt
}
