// Package cqserver implements the first layer of the LIRA architecture:
// the mobile CQ server. The server ingests position updates through a
// bounded input queue, maintains the motion table and the statistics grid,
// evaluates registered range CQs over dead-reckoned positions, and runs
// the LIRA adaptation cycle — THROTLOOP to pick the throttle fraction,
// GRIDREDUCE to partition the space, and GREEDYINCREMENT to set the update
// throttlers — publishing the result to the base-station layer.
package cqserver

import (
	"fmt"
	"sort"
	"time"

	"lira/internal/controlplane"
	"lira/internal/cqindex"
	"lira/internal/fmodel"
	"lira/internal/geo"
	"lira/internal/history"
	"lira/internal/motion"
	"lira/internal/par"
	"lira/internal/partition"
	"lira/internal/queue"
	"lira/internal/spans"
	"lira/internal/statgrid"
	"lira/internal/telemetry"
	"lira/internal/throtloop"
	"lira/internal/throttler"
)

// Update is one position-update message from a mobile node.
type Update struct {
	Node   int
	Report motion.Report
}

// Config parameterizes a server.
type Config struct {
	// Space is the monitored area.
	Space geo.Rect
	// Nodes is the number of mobile nodes the server tracks.
	Nodes int
	// Alpha is the statistics-grid resolution. Zero selects the paper's
	// rule α = 2^⌊log₂(10·√L)⌋.
	Alpha int
	// L is the number of shedding regions.
	L int
	// QueueSize is the input queue bound B.
	QueueSize int
	// IndexCells is the side cell count of the query-evaluation index.
	// Zero selects a density-appropriate default.
	IndexCells int
	// Curve is the update reduction function used by the optimizer.
	Curve *fmodel.Curve
	// Fairness is the fairness threshold Δ⇔.
	Fairness float64
	// UseSpeed enables the §3.1.2 speed factor.
	UseSpeed bool
	// HistoryPerNode enables the report history for snapshot/historic
	// queries — the workload the fairness threshold exists for (§3.1.1).
	// It bounds retained reports per node; 0 disables history.
	HistoryPerNode int
	// ProtectQueries enables the query-protective drill-down extension
	// (see partition.Config.ProtectQueries); 0 is the paper's algorithm.
	ProtectQueries float64
	// Telemetry, when non-nil, receives hot-path metrics (Evaluate stage
	// latencies, queue depth, adaptation timings) and decision-journal
	// records for every THROTLOOP / GRIDREDUCE / GREEDYINCREMENT action.
	// Telemetry is passive: server behavior and output are identical with
	// or without it.
	Telemetry *telemetry.Hub
}

// Server is a mobile CQ server.
type Server struct {
	cfg     Config
	table   *motion.Table
	grid    *statgrid.Grid
	input   *queue.Bounded[Update]
	index   *cqindex.Grid
	plane   *controlplane.Plane
	queries []geo.Rect

	// Scratch buffers for query evaluation, reused across rounds: the
	// predicted positions, the active mask, and the per-query result
	// slices (whose backing arrays persist between Evaluate calls).
	predicted []geo.Point
	active    []bool
	results   [][]int

	// Hot-path state hoisted out of Evaluate so the steady state performs
	// zero allocations: the motion table's column view, the evaluation
	// timestamp the chunk workers read, and the chunk-worker funcs bound
	// once at construction (a closure literal inside Evaluate would
	// allocate on every call).
	cols      motion.Columns
	evalNow   float64
	predictFn func(shard, lo, hi int)
	scanFn    func(shard, lo, hi int)

	history *history.Store
	applied int64

	// degradedEval switches Evaluate to the prediction-only refresh (the
	// admission ladder's critical rung). Single-caller, like Evaluate.
	degradedEval bool

	tel *serverTelemetry
}

// serverTelemetry holds the server's pre-resolved metric pointers so hot
// paths pay one nil check plus one atomic per event, never a registry
// lookup. Nil when no Hub is configured.
type serverTelemetry struct {
	hub *telemetry.Hub

	evalHist    *telemetry.Histogram // lira_evaluate_seconds
	predictHist *telemetry.Histogram // lira_evaluate_predict_seconds
	scanHist    *telemetry.Histogram // lira_evaluate_scan_seconds

	queueDepth  *telemetry.Gauge // lira_queue_depth
	gridNodes   *telemetry.Gauge // lira_statgrid_nodes
	gridQueries *telemetry.Gauge // lira_statgrid_queries

	dropped       *telemetry.Counter // lira_queue_dropped_total
	applied       *telemetry.Counter // lira_updates_applied_total
	evals         *telemetry.Counter // lira_evaluations_total
	degradedEvals *telemetry.Counter // lira_evaluate_degraded_total
}

func newServerTelemetry(hub *telemetry.Hub) *serverTelemetry {
	if hub == nil {
		return nil
	}
	r := hub.Registry
	return &serverTelemetry{
		hub:           hub,
		evalHist:      r.Histogram("lira_evaluate_seconds", nil),
		predictHist:   r.Histogram("lira_evaluate_predict_seconds", nil),
		scanHist:      r.Histogram("lira_evaluate_scan_seconds", nil),
		queueDepth:    r.Gauge("lira_queue_depth"),
		gridNodes:     r.Gauge("lira_statgrid_nodes"),
		gridQueries:   r.Gauge("lira_statgrid_queries"),
		dropped:       r.Counter("lira_queue_dropped_total"),
		applied:       r.Counter("lira_updates_applied_total"),
		evals:         r.Counter("lira_evaluations_total"),
		degradedEvals: r.Counter("lira_evaluate_degraded_total"),
	}
}

// Evaluate's fixed shard sizes: nodes per predict shard and queries per
// scan shard. Both decompositions depend only on the input sizes, so
// evaluation is deterministic at any worker count.
const (
	predictChunk = 2048
	queryChunk   = 8
)

// New validates cfg and returns a server.
func New(cfg Config) (*Server, error) {
	if cfg.Space.Empty() {
		return nil, fmt.Errorf("cqserver: empty space")
	}
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("cqserver: non-positive node count %d", cfg.Nodes)
	}
	if cfg.L <= 0 {
		return nil, fmt.Errorf("cqserver: non-positive region count %d", cfg.L)
	}
	if cfg.Curve == nil {
		return nil, fmt.Errorf("cqserver: nil update reduction curve")
	}
	if cfg.Alpha == 0 {
		cfg.Alpha = partition.AlphaFor(cfg.L, 10)
	}
	if cfg.QueueSize == 0 {
		cfg.QueueSize = 1000
	}
	if cfg.IndexCells == 0 {
		cfg.IndexCells = 64
	}
	if cfg.Fairness == 0 {
		cfg.Fairness = throttler.NoFairness(cfg.Curve)
	}
	var hist *history.Store
	var err error
	if cfg.HistoryPerNode > 0 {
		hist, err = history.NewStore(cfg.Nodes, cfg.HistoryPerNode)
		if err != nil {
			return nil, err
		}
	}
	s := &Server{
		history:   hist,
		cfg:       cfg,
		table:     motion.NewTable(cfg.Nodes),
		grid:      statgrid.New(cfg.Space, cfg.Alpha),
		input:     queue.NewBounded[Update](cfg.QueueSize),
		index:     cqindex.NewGrid(cfg.Space, cfg.IndexCells),
		predicted: make([]geo.Point, cfg.Nodes),
		active:    make([]bool, cfg.Nodes),
		tel:       newServerTelemetry(cfg.Telemetry),
	}
	s.plane, err = controlplane.New(controlplane.Config{
		Env: controlplane.Env{
			L:              cfg.L,
			Curve:          cfg.Curve,
			Fairness:       cfg.Fairness,
			UseSpeed:       cfg.UseSpeed,
			ProtectQueries: cfg.ProtectQueries,
		},
		Stats:     s,
		Rates:     s.input,
		QueueCap:  cfg.QueueSize,
		Telemetry: cfg.Telemetry,
	})
	if err != nil {
		return nil, err
	}
	s.cols = s.table.Columns()
	s.predictFn = s.predictRange
	s.scanFn = s.scanRange
	return s, nil
}

// StatsGrid exposes the statistics grid (read-mostly; the experiment
// harness feeds it samples). It implements controlplane.StatsSource: the
// grid an adaptation partitions.
func (s *Server) StatsGrid() *statgrid.Grid { return s.grid }

// Table exposes the server's motion table.
func (s *Server) Table() *motion.Table { return s.table }

// Queue exposes the input queue for rate accounting.
func (s *Server) Queue() *queue.Bounded[Update] { return s.input }

// Throttle exposes the THROTLOOP controller.
func (s *Server) Throttle() *throtloop.Controller { return s.plane.Throttle() }

// ControlPlane exposes the server's control plane, e.g. to swap the
// shedding policy.
func (s *Server) ControlPlane() *controlplane.Plane { return s.plane }

// RegisterQueries replaces the registered continuous range queries and
// refreshes the statistics grid's query census.
func (s *Server) RegisterQueries(qs []geo.Rect) {
	s.queries = append(s.queries[:0], qs...)
	s.grid.SetQueries(qs)
	// Resize the result table, keeping per-query backing arrays alive.
	for len(s.results) < len(qs) {
		s.results = append(s.results, nil)
	}
	s.results = s.results[:len(qs)]
}

// Queries returns the registered queries.
func (s *Server) Queries() []geo.Rect { return s.queries }

// Ingest offers an update to the input queue; a full queue drops it.
func (s *Server) Ingest(u Update) bool {
	ok := s.input.Offer(u)
	if s.tel != nil {
		if !ok {
			s.tel.dropped.Inc()
		}
		s.tel.queueDepth.Set(float64(s.input.Len()))
	}
	return ok
}

// Drain applies up to limit queued updates to the motion table and
// returns the number applied. A negative limit drains everything.
func (s *Server) Drain(limit int) int {
	a, b := s.input.ServeSegments(limit)
	for _, seg := range [2][]Update{a, b} {
		for i := range seg {
			s.table.Apply(seg[i].Node, seg[i].Report)
			if s.history != nil {
				_ = s.history.Append(seg[i].Node, seg[i].Report)
			}
		}
	}
	applied := len(a) + len(b)
	s.applied += int64(applied)
	if s.tel != nil {
		s.tel.applied.Add(int64(applied))
		s.tel.queueDepth.Set(float64(s.input.Len()))
	}
	return applied
}

// Apply installs an update directly, bypassing the queue (used by the
// harness's reference run, which models an infinitely provisioned server).
func (s *Server) Apply(u Update) {
	s.table.Apply(u.Node, u.Report)
	if s.history != nil {
		// Ignore out-of-order reports: a reconnecting node may replay an
		// old report, which the live table tolerates but history rejects.
		_ = s.history.Append(u.Node, u.Report)
	}
	s.applied++
}

// History returns the report history store, or nil when history is
// disabled. Use it to answer snapshot and historic range queries.
func (s *Server) History() *history.Store { return s.history }

// Applied returns the number of updates integrated into the motion table.
func (s *Server) Applied() int64 { return s.applied }

// ObserveStatistics folds one sample of node positions and speeds into the
// statistics grid. In a deployment this is derived from the update stream
// or a grid-based index; the harness samples ground truth, which the paper
// also permits ("the statistics can easily be approximated using
// sampling").
func (s *Server) ObserveStatistics(positions []geo.Point, speeds []float64) {
	s.grid.Observe(positions, speeds)
	if s.tel != nil {
		// Gauges are stored here (single-writer) rather than registered as
		// funcs: the grid is not goroutine-safe, so scrape-time evaluation
		// would race with Observe.
		n, m := s.grid.Totals()
		s.tel.gridNodes.Set(n)
		s.tel.gridQueries.Set(m)
	}
}

// Evaluate re-evaluates every registered query at time now against the
// dead-reckoned node positions. results[q] lists node ids in ascending
// order; the backing arrays are reused across calls, so callers must copy
// what they keep.
//
// Ascending node-id order is the canonical result order: it is
// independent of the index structure's internal layout, so the
// degraded path and the differential oracles can compare results
// directly.
//
// The prediction pass is chunked across goroutines, and the per-query
// index scans run concurrently over the rebuilt CSR grid (which is
// read-only during scanning). Each query writes only its own result slot
// and each scan visits buckets in the serial order, so the output is
// byte-identical at any worker count.
func (s *Server) Evaluate(now float64) [][]int {
	if s.degradedEval {
		return s.evaluateDegraded(now)
	}
	// Wall-clock stamps are taken only with telemetry attached; durations
	// feed latency histograms and never the simulation state, preserving
	// determinism (see the telemetry package's contract). Spans likewise:
	// they are created only from this single-caller coordinator (never
	// inside the par workers), so span ids assign in deterministic order.
	var t0, t1, t2 time.Time
	var root, sp spans.Ctx
	if s.tel != nil {
		t0 = time.Now()
		root = s.tel.hub.Spans().Start("evaluate", "engine").Num("nodes", float64(s.cfg.Nodes)).Num("queries", float64(len(s.queries)))
		sp = root.Child("predict", "engine")
	}
	s.evalNow = now
	par.ForChunks(s.cfg.Nodes, predictChunk, s.predictFn)
	if s.tel != nil {
		t1 = time.Now()
		sp.End()
		sp = root.Child("scan", "engine")
	}
	s.index.Rebuild(s.predicted, s.active)
	par.ForChunks(len(s.queries), queryChunk, s.scanFn)
	if s.tel != nil {
		t2 = time.Now()
		sp.End()
		root.End()
		s.tel.predictHist.Observe(t1.Sub(t0).Seconds())
		s.tel.scanHist.Observe(t2.Sub(t1).Seconds())
		s.tel.evalHist.Observe(t2.Sub(t0).Seconds())
		s.tel.evals.Inc()
	}
	return s.results
}

// predictRange is the predict-phase chunk worker: it streams the motion
// table's columns — five contiguous float64 slices — instead of loading
// per-node report structs, and writes the clamped dead-reckoned position
// plus the active mask for [lo, hi). The arithmetic is exactly
// Report.Predict's, so results are bit-identical to the per-id path.
func (s *Server) predictRange(_, lo, hi int) {
	now := s.evalNow
	cols := s.cols
	for i := lo; i < hi; i++ {
		ok := cols.Known[i]
		s.active[i] = ok
		if ok {
			s.predicted[i] = s.cfg.Space.ClampPoint(cols.Predict(i, now))
		}
	}
}

// scanRange is the scan-phase chunk worker: each query in [lo, hi) fills
// its own pooled result slice via the index's append API — no per-query
// callback closure, no per-round allocation once the backing arrays have
// grown to their working size.
func (s *Server) scanRange(_, lo, hi int) {
	for qi := lo; qi < hi; qi++ {
		ids := s.index.QueryAppend(s.queries[qi], s.results[qi][:0])
		sort.Ints(ids)
		s.results[qi] = ids
	}
}

// SetDegradedEval switches Evaluate to prediction-only mode (see
// evaluateDegraded). Single-caller, like Evaluate.
func (s *Server) SetDegradedEval(on bool) { s.degradedEval = on }

// evaluateDegraded is the critical-rung Evaluate: each query's previous
// members are re-tested against the query rect at their dead-reckoned
// positions — departures drop out, but no index rebuild and no scans run,
// so no new entrants are discovered. Accuracy degrades (results can only
// shrink between normal rounds); availability and result ordering do not.
// The containment test (clamped prediction, closed rect) matches the
// index scan's exactly, and ascending id order is preserved by in-place
// filtering, so the path answers bit-identically to a full evaluation
// whenever no node entered a query since the last normal round.
func (s *Server) evaluateDegraded(now float64) [][]int {
	var t0 time.Time
	if s.tel != nil {
		t0 = time.Now()
	}
	for qi := range s.results {
		q := s.queries[qi]
		ids := s.results[qi]
		kept := ids[:0]
		for _, id := range ids {
			if p, ok := s.table.Predict(id, now); ok && q.ContainsClosed(s.cfg.Space.ClampPoint(p)) {
				kept = append(kept, id)
			}
		}
		s.results[qi] = kept
	}
	if s.tel != nil {
		s.tel.evalHist.Observe(time.Since(t0).Seconds())
		s.tel.evals.Inc()
		s.tel.degradedEvals.Inc()
	}
	return s.results
}

// PredictedPosition returns the server's belief about a node's position.
func (s *Server) PredictedPosition(id int, now float64) (geo.Point, bool) {
	return s.table.Predict(id, now)
}

// Adaptation is the output of one LIRA adaptation cycle, ready for the
// base-station layer. It is the control plane's adaptation record; the
// alias keeps the historical cqserver.Adaptation name compiling.
type Adaptation = controlplane.Adaptation

// Adapt runs one adaptation cycle with an explicit throttle fraction z —
// the manually-set budget mode of §2.1. Use AdaptAuto for closed-loop
// control. The pipeline itself (GRIDREDUCE → GREEDYINCREMENT under the
// active policy) lives in internal/controlplane.
func (s *Server) Adapt(z float64) (*Adaptation, error) {
	return s.plane.Adapt(z)
}

// AdaptAuto measures the queue over the given window, steps THROTLOOP, and
// runs the adaptation cycle at the resulting throttle fraction.
func (s *Server) AdaptAuto(window float64) (*Adaptation, error) {
	return s.plane.AdaptAuto(window)
}

// IngestShedOldest enqueues an update, shedding the oldest on overflow to
// make room for the freshest; the flag reports whether a shed happened.
// This is the network layer's saturation policy — see
// queue.Bounded.OfferShedOldest.
func (s *Server) IngestShedOldest(u Update) bool {
	shed := s.input.OfferShedOldest(u)
	if s.tel != nil {
		if shed {
			s.tel.dropped.Inc()
		}
		s.tel.queueDepth.Set(float64(s.input.Len()))
	}
	return shed
}

// IngestShedOldestBatch enqueues a slice of updates in arrival order
// under the shed-oldest policy and returns how many entries were shed. A
// batch of n counts exactly n arrivals in the λ accounting THROTLOOP
// watches — identical to n IngestShedOldest calls — but admission costs
// two copies instead of n ring operations. This is the vectored hot path
// the batched wire format feeds.
func (s *Server) IngestShedOldestBatch(us []Update) int {
	shed := s.input.OfferShedOldestBulk(us)
	if s.tel != nil {
		if shed > 0 {
			s.tel.dropped.Add(int64(shed))
		}
		s.tel.queueDepth.Set(float64(s.input.Len()))
	}
	return shed
}

// IngestShedOldestColumns is the columnar variant of
// IngestShedOldestBatch: records arrive as the parallel column slices a
// decoded wire batch already holds, and each survivor is scattered
// directly into its ring slot — one write per record, no intermediate
// contiguous staging. All slices must have equal length; behavior and λ
// accounting are identical to offering the records one at a time.
func (s *Server) IngestShedOldestColumns(nodes []uint32, xs, ys, vxs, vys, times []float64) int {
	n := len(nodes)
	a, b, shed := s.input.ReserveShedOldestBulk(n)
	// When n exceeds the ring, only the trailing len(a)+len(b) records
	// survive admission; the reservation already counted the rest as shed.
	i := n - len(a) - len(b)
	for _, seg := range [2][]Update{a, b} {
		for j := range seg {
			seg[j] = Update{Node: int(nodes[i]), Report: motion.Report{
				Pos:  geo.Point{X: xs[i], Y: ys[i]},
				Vel:  geo.Vector{X: vxs[i], Y: vys[i]},
				Time: times[i],
			}}
			i++
		}
	}
	if s.tel != nil {
		if shed > 0 {
			s.tel.dropped.Add(int64(shed))
		}
		s.tel.queueDepth.Set(float64(s.input.Len()))
	}
	return shed
}

// Arrived returns the total number of updates ever offered to the input
// queue (admitted or shed) — the record-conservation ledger's engine-side
// arrival count: Arrived == Applied + Dropped + QueueLen at quiescence,
// provided every update entered through the queue (Apply bypasses it and
// counts only toward Applied).
func (s *Server) Arrived() int64 { return s.input.Arrived() }

// QueueLen returns the current input-queue length.
func (s *Server) QueueLen() int { return s.input.Len() }

// QueueCap returns the input-queue bound B.
func (s *Server) QueueCap() int { return s.input.Cap() }

// Dropped counts updates shed or rejected on queue overflow.
func (s *Server) Dropped() int64 { return s.input.Dropped() }

// ObserveBusy accumulates busy time into the current rate window; see
// queue.Bounded.ObserveBusy.
func (s *Server) ObserveBusy(busy float64) { s.input.ObserveBusy(busy) }
