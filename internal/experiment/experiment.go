// Package experiment is the end-to-end harness behind every figure and
// table of the paper's evaluation (§4).
//
// A run simulates the full three-layer system twice over the same
// trajectories: a *reference* system in which every node dead-reckons at
// the ideal threshold Δ⊢ (the paper's definition of correct results R*(q)
// and correct positions p*(o)), and a *candidate* system operating under
// one of the four shedding strategies. Registered range CQs are evaluated
// periodically against both systems and the §4.1 accuracy metrics are
// accumulated from the differences.
package experiment

import (
	"fmt"
	"time"

	"lira/internal/basestation"
	"lira/internal/controlplane"
	"lira/internal/cqserver"
	"lira/internal/engine"
	"lira/internal/fmodel"
	"lira/internal/geo"
	"lira/internal/metrics"
	"lira/internal/mobilenode"
	"lira/internal/motion"
	"lira/internal/rng"
	"lira/internal/roadnet"
	"lira/internal/shedding"
	"lira/internal/telemetry"
	"lira/internal/trace"
	"lira/internal/workload"
)

// EnvConfig parameterizes the shared environment: the road network, the
// mobile-node trace, and the calibrated update reduction function.
type EnvConfig struct {
	// Net configures the synthetic road network.
	Net roadnet.Config
	// Nodes is the number of mobile nodes n.
	Nodes int
	// TraceSeed drives car placement and routing.
	TraceSeed uint64
	// MinDelta and MaxDelta are Δ⊢ and Δ⊣ in meters.
	MinDelta, MaxDelta float64
	// CalibSegments is the κ used while measuring f(Δ); CalibTicks and
	// CalibNodes bound the calibration replay. Zero values select
	// defaults.
	CalibSegments, CalibTicks, CalibNodes int
	// Segments is the κ of the resampled curve handed to the optimizer;
	// the default 95 gives the paper's c_Δ = 1 m.
	Segments int
	// Dt is the tick length in seconds.
	Dt float64
}

// DefaultEnvConfig returns the paper-scale environment: ≈200 km², 10 000
// nodes, Δ ∈ [5 m, 100 m], c_Δ = 1 m.
func DefaultEnvConfig() EnvConfig {
	return EnvConfig{
		Net:           roadnet.DefaultConfig(),
		Nodes:         10000,
		TraceSeed:     2,
		MinDelta:      5,
		MaxDelta:      100,
		CalibSegments: 19,
		CalibTicks:    240,
		CalibNodes:    2000,
		Segments:      95,
		Dt:            1,
	}
}

func (c *EnvConfig) fillDefaults() {
	d := DefaultEnvConfig()
	if c.Nodes <= 0 {
		c.Nodes = d.Nodes
	}
	if c.MinDelta <= 0 {
		c.MinDelta = d.MinDelta
	}
	if c.MaxDelta <= c.MinDelta {
		c.MaxDelta = d.MaxDelta
	}
	if c.CalibSegments <= 0 {
		c.CalibSegments = d.CalibSegments
	}
	if c.CalibTicks <= 0 {
		c.CalibTicks = d.CalibTicks
	}
	if c.CalibNodes <= 0 {
		c.CalibNodes = d.CalibNodes
	}
	if c.Segments <= 0 {
		c.Segments = d.Segments
	}
	if c.Dt <= 0 {
		c.Dt = d.Dt
	}
}

// Env is a shared experiment environment. Build one Env per parameter
// sweep and run many policies against it. Network generation and f
// calibration happen once, in NewEnv. The Δ⊢ reference is memoized: the
// Env keeps the most recent run's recorded reference, and a run whose
// reference inputs match (see referenceKey) replays it instead of
// simulating it again.
type Env struct {
	Cfg   EnvConfig
	Net   *roadnet.Network
	Src   *trace.Source
	Curve *fmodel.Curve
	Space geo.Rect

	// ref is the most recent run's recorded reference, nil before the
	// first completed run.
	ref *reference
}

// NewEnv generates the road network, the trace source, and the calibrated
// update reduction function.
func NewEnv(cfg EnvConfig) (*Env, error) {
	cfg.fillDefaults()
	net := roadnet.Generate(cfg.Net)
	src := trace.NewSource(net, trace.Config{N: cfg.Nodes, Seed: cfg.TraceSeed})

	calibNodes := cfg.CalibNodes
	if calibNodes > cfg.Nodes {
		calibNodes = cfg.Nodes
	}
	calibSrc := trace.NewSource(net, trace.Config{N: calibNodes, Seed: cfg.TraceSeed})
	coarse, err := fmodel.Calibrate(calibSrc, cfg.MinDelta, cfg.MaxDelta,
		cfg.CalibSegments, cfg.CalibTicks, cfg.Dt)
	if err != nil {
		return nil, fmt.Errorf("experiment: calibrating f(Δ): %w", err)
	}
	return &Env{
		Cfg:   cfg,
		Net:   net,
		Src:   src,
		Curve: fmodel.Resample(coarse, cfg.Segments),
		Space: net.Space,
	}, nil
}

// RunConfig parameterizes one simulation run against an Env.
type RunConfig struct {
	// Strategy selects the shedding strategy by its legacy enum. It is
	// the Kind-shaped view of Policy: when Policy is empty, the strategy
	// resolves through the canonical registry to the policy that backs
	// it. Ignored when Policy is set.
	Strategy shedding.Kind
	// Policy, when non-empty, selects any canonical-registry policy by
	// name (controlplane.RegisteredNames lists them) — including
	// post-paper policies like "hysteresis" that have no Strategy enum
	// value. One fresh instance is constructed per run, so a stateful
	// policy's damping spans the run's re-adaptations but never leaks
	// across runs.
	Policy string
	// Workload, when non-empty, replaces the Env's road-network trace
	// with the named internal/workload catalog scenario as the motion
	// source: the same three-layer simulation, reference system, and
	// measured metrics, driven by the scenario's overload trajectory.
	// Requires Dt = 1 (scenario ticks are one second). The scenario seed
	// is derived from Seed, so repeats sweep it like everything else.
	Workload string
	// WorkloadRate is the scenario's baseline aggregate report rate in
	// updates per tick; 0 selects nodes/10. Only meaningful with
	// Workload.
	WorkloadRate float64
	// Z is the throttle fraction.
	Z float64
	// L is the number of shedding regions; Alpha the statistics-grid
	// resolution (0 selects the paper's rule from L).
	L, Alpha int
	// Fairness is Δ⇔ in meters (0 selects the unconstrained case).
	Fairness float64
	// UseSpeed enables the §3.1.2 speed factor.
	UseSpeed bool
	// QueryCount is m; when 0 it is derived as MOverN × nodes.
	QueryCount int
	// MOverN is the m/n ratio of Table 2.
	MOverN float64
	// QuerySide is w in meters; QueryDist the placement distribution.
	QuerySide float64
	QueryDist workload.Distribution
	// WarmupTicks precede measurement: statistics gathering and strategy
	// configuration happen at the end of warmup.
	WarmupTicks int
	// DurationTicks is the measured interval; queries are evaluated every
	// EvalEvery ticks and statistics sampled every StatSampleEvery ticks.
	DurationTicks, EvalEvery, StatSampleEvery int
	// HandoffEvery is how often (in ticks) nodes check their base-station
	// coverage.
	HandoffEvery int
	// ReAdaptEvery re-runs the strategy configuration with refreshed
	// statistics every given number of measurement ticks and rebroadcasts
	// the assignments; 0 keeps the single warmup-time configuration.
	ReAdaptEvery int
	// ProtectQueries enables the query-protective drill-down extension
	// for the Lira strategy; 0 is the paper's exact algorithm.
	ProtectQueries float64
	// Shards selects the candidate evaluation engine via engine.New:
	// values above 1 run the spatially sharded engine with that many
	// shard cells; 0 and 1 run the unsharded server. Query results are
	// byte-identical either way, so sharding never changes a Result —
	// it exercises the same simulation through the concurrent engine.
	Shards int
	// StationRadius selects uniform station placement with that coverage
	// radius; 0 selects the density-aware placement.
	StationRadius float64
	// Seed drives run-local randomness (query placement, admission).
	Seed uint64
	// Telemetry, when non-nil, is attached to the candidate server (never
	// the Δ⊢ reference) and receives per-evaluation-period series sampled
	// at simulation ticks. The hub's clock is set to the run's tick time,
	// so journals and series reproduce under a fixed seed. Telemetry is
	// passive: the run's Result is identical with or without it.
	Telemetry *telemetry.Hub
}

// DefaultRunConfig returns the paper's Table 2 defaults.
func DefaultRunConfig() RunConfig {
	return RunConfig{
		Strategy:        shedding.Lira,
		Z:               0.5,
		L:               250,
		Alpha:           0, // → 128 via the paper's rule
		Fairness:        50,
		UseSpeed:        true,
		MOverN:          0.01,
		QuerySide:       1000,
		QueryDist:       workload.Proportional,
		WarmupTicks:     90,
		DurationTicks:   900,
		EvalEvery:       30,
		StatSampleEvery: 10,
		HandoffEvery:    10,
		Seed:            7,
	}
}

// resolve fills defaults and the fields derived from the node count n:
// QueryCount from MOverN, and WorkloadRate (zero without a workload).
func (c *RunConfig) resolve(n int) {
	c.fillDefaults()
	if c.QueryCount <= 0 {
		c.QueryCount = int(c.MOverN * float64(n))
		if c.QueryCount < 1 {
			c.QueryCount = 1
		}
	}
	switch {
	case c.Workload == "":
		c.WorkloadRate = 0
	case c.WorkloadRate <= 0:
		c.WorkloadRate = float64(n) / 10
	}
}

func (c *RunConfig) fillDefaults() {
	d := DefaultRunConfig()
	if c.Z == 0 {
		c.Z = d.Z
	}
	if c.L <= 0 {
		c.L = d.L
	}
	if c.MOverN <= 0 && c.QueryCount <= 0 {
		c.MOverN = d.MOverN
	}
	if c.QuerySide <= 0 {
		c.QuerySide = d.QuerySide
	}
	if c.WarmupTicks <= 0 {
		c.WarmupTicks = d.WarmupTicks
	}
	if c.DurationTicks <= 0 {
		c.DurationTicks = d.DurationTicks
	}
	if c.EvalEvery <= 0 {
		c.EvalEvery = d.EvalEvery
	}
	if c.StatSampleEvery <= 0 {
		c.StatSampleEvery = d.StatSampleEvery
	}
	if c.HandoffEvery <= 0 {
		c.HandoffEvery = d.HandoffEvery
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
}

// Result summarizes one run.
type Result struct {
	Strategy shedding.Kind
	// Policy is the registry name of the policy the run enacted (set
	// whether the run was configured by Policy or by Strategy).
	Policy string
	// Workload names the catalog scenario that drove motion, or "" for
	// the Env's road-network trace.
	Workload string
	Z        float64

	// Metrics holds the §4.1 accuracy metrics against the Δ⊢ reference.
	Metrics metrics.Summary
	// PerQueryContainment holds the per-query mean containment errors
	// (NaN for queries that never had a non-empty correct result), in
	// query-generation order. Queries regenerate deterministically from
	// the same RunConfig.
	PerQueryContainment []float64

	// ReferenceUpdates counts updates the Δ⊢ reference generated during
	// measurement; SentUpdates those the shedding nodes transmitted; and
	// AdmittedUpdates those the candidate server integrated. For the
	// source-actuated strategies Sent == Admitted; for RandomDrop the gap
	// is wasted wireless bandwidth.
	ReferenceUpdates, SentUpdates, AdmittedUpdates int64
	// AchievedFraction is Admitted/Reference — how closely the realized
	// shedding matched the throttle fraction.
	AchievedFraction float64

	// ConfigElapsed is the strategy-configuration cost (the paper's
	// "server side cost").
	ConfigElapsed time.Duration
	// BudgetMet mirrors the optimizer's feasibility flag.
	BudgetMet bool

	// Base-station layer accounting (Table 3).
	Stations                 int
	RegionsPerStation        float64
	BroadcastBytesPerStation float64
	Handoffs                 int64
}

// traffic is the motion-source slice of the simulation: the Env's
// road-network trace by default, or a workload.Traffic scenario adapter
// when RunConfig.Workload names one.
type traffic interface {
	Reset()
	Step(dt float64)
	Positions() []geo.Point
	Velocities() []geo.Vector
}

// policyFor resolves the run's shedding policy: by registry name when
// cfg.Policy is set, through the legacy Strategy enum otherwise. The
// instance is fresh — private to the run.
func policyFor(cfg RunConfig) (controlplane.Policy, error) {
	if cfg.Policy != "" {
		pol, ok := controlplane.NewPolicy(cfg.Policy)
		if !ok {
			return nil, fmt.Errorf("experiment: unknown policy %q (registry: %v)",
				cfg.Policy, controlplane.RegisteredNames())
		}
		return pol, nil
	}
	pol, ok := shedding.PolicyForKind(cfg.Strategy)
	if !ok {
		return nil, fmt.Errorf("experiment: unknown strategy %v", cfg.Strategy)
	}
	return pol, nil
}

// Run executes one simulation against env. Run resets the env's trace
// source and updates its reference memo, so callers must not run two
// simulations on one Env at the same time. To execute runs in parallel,
// give each goroutine its own Env.Fork; every other piece of run state
// (servers, stations, nodes, collectors, RNG streams) is already private
// to the run.
//
// When env's memo holds the reference for cfg's reference key, the run
// replays it and simulates the candidate alone; otherwise it simulates
// both and records the reference as it goes. Either way the Result is
// the same.
func Run(env *Env, cfg RunConfig) (*Result, error) {
	n := env.Cfg.Nodes
	cfg.resolve(n)
	key := referenceKeyFor(env, cfg)
	ref := env.ref
	var rec *reference // non-nil while recording a fresh reference
	if ref == nil || ref.key != key {
		// Release the old record now, so a miss never holds two.
		ref, rec, env.ref = nil, &reference{key: key}, nil
	}
	pol, err := policyFor(cfg)
	if err != nil {
		return nil, err
	}
	runRng := rng.New(cfg.Seed)
	admitRng := runRng.Split(1)

	// Candidate engine (owns the statistics grid and adaptation); the
	// reference server only evaluates queries over its own motion table.
	// Telemetry observes the candidate only — the reference models an
	// infinitely provisioned system nobody needs to debug. The candidate
	// runs whichever engine cfg.Shards selects; the reference stays
	// unsharded (both engines evaluate byte-identically, so the cheaper
	// one serves as ground truth either way).
	mk := func(hub *telemetry.Hub, shards int) (engine.Engine, error) {
		return engine.New(cqserver.Config{
			Space:          env.Space,
			Nodes:          n,
			Alpha:          cfg.Alpha,
			L:              cfg.L,
			Curve:          env.Curve,
			Fairness:       cfg.Fairness,
			UseSpeed:       cfg.UseSpeed,
			ProtectQueries: cfg.ProtectQueries,
			Telemetry:      hub,
		}, shards)
	}
	srvCand, err := mk(cfg.Telemetry, cfg.Shards)
	if err != nil {
		return nil, err
	}
	// The reference system exists only while recording.
	var srvRef engine.Engine
	var refReck []motion.DeadReckoner
	if rec != nil {
		if srvRef, err = mk(nil, 1); err != nil {
			return nil, err
		}
		refReck = make([]motion.DeadReckoner, n)
	}

	var src traffic = env.Src
	if cfg.Workload != "" {
		if env.Cfg.Dt != 1 {
			return nil, fmt.Errorf("experiment: workload %q needs Dt = 1, env has %v",
				cfg.Workload, env.Cfg.Dt)
		}
		tr, err := workload.NewTraffic(cfg.Workload, env.Space, n, cfg.WorkloadRate, cfg.Seed^0x117a)
		if err != nil {
			return nil, err
		}
		src = tr
	}
	src.Reset()
	dt := env.Cfg.Dt
	minDelta := env.Cfg.MinDelta

	// Simulation time; the telemetry clock reads this variable, so every
	// journal record and series point is stamped with tick time.
	var now float64
	var serSent, serAdmitted, serRef, serContain *telemetry.Series
	if cfg.Telemetry != nil {
		cfg.Telemetry.SetClock(func() float64 { return now })
		r := cfg.Telemetry.Registry
		serSent = r.Series("sim_sent_updates", 0)
		serAdmitted = r.Series("sim_admitted_updates", 0)
		serRef = r.Series("sim_reference_updates", 0)
		serContain = r.Series("sim_containment_mean", 0)
	}

	speeds := make([]float64, n)
	snapshotSpeeds := func() {
		vel := src.Velocities()
		for i := range speeds {
			speeds[i] = vel[i].Len()
		}
	}

	// Warmup: move the cars and gather statistics.
	for tick := 0; tick < cfg.WarmupTicks; tick++ {
		src.Step(dt)
		now = float64(tick+1) * dt
		if tick%cfg.StatSampleEvery == 0 {
			snapshotSpeeds()
			srvCand.ObserveStatistics(src.Positions(), speeds)
		}
	}

	// Queries from the warmed node distribution.
	var queries []geo.Rect
	if rec != nil {
		queries, err = workload.GenerateQueries(env.Space, src.Positions(), workload.QueryConfig{
			Count:        cfg.QueryCount,
			SideLength:   cfg.QuerySide,
			Distribution: cfg.QueryDist,
			Seed:         cfg.Seed ^ 0x5eed,
		})
		if err != nil {
			return nil, err
		}
		rec.queries = queries
		srvRef.RegisterQueries(queries)
	} else {
		queries = ref.queries
	}
	srvCand.RegisterQueries(queries)

	// Configure the shedding policy. The same instance serves every
	// re-adaptation below, so stateful policies damp across them.
	shedOpts := shedding.Options{
		L:        cfg.L,
		Curve:    env.Curve,
		Fairness: cfg.Fairness,
		UseSpeed: cfg.UseSpeed,
	}
	out, err := shedding.ConfigurePolicy(pol, srvCand, cfg.Z, shedOpts)
	if err != nil {
		return nil, err
	}

	// Base-station layer: place stations, compute per-station subsets,
	// compile node-side indexes.
	var stations []basestation.Station
	if cfg.StationRadius > 0 {
		stations, err = basestation.PlaceUniform(env.Space, cfg.StationRadius)
	} else {
		target := n/25 + 1
		stations, err = basestation.PlaceDensityAware(env.Space, src.Positions(), target,
			env.Space.Width()/40, env.Space.Width())
	}
	if err != nil {
		return nil, err
	}
	deploy, err := basestation.NewDeployment(stations, out.Partitioning, out.Deltas)
	if err != nil {
		return nil, err
	}
	compiled := make([]*mobilenode.Compiled, len(deploy.Assignments))
	for i, a := range deploy.Assignments {
		compiled[i] = mobilenode.Compile(a)
	}

	// Mobile nodes.
	nodes := make([]*mobilenode.Node, n)
	now = float64(cfg.WarmupTicks) * dt
	pos, vel := src.Positions(), src.Velocities()
	res := &Result{
		Strategy:                 out.Kind,
		Policy:                   out.Policy,
		Workload:                 cfg.Workload,
		Z:                        cfg.Z,
		ConfigElapsed:            out.Elapsed,
		BudgetMet:                out.BudgetMet,
		Stations:                 len(stations),
		RegionsPerStation:        deploy.MeanRegionsPerStation(),
		BroadcastBytesPerStation: deploy.MeanBroadcastBytes(),
	}
	for i := 0; i < n; i++ {
		nodes[i] = mobilenode.NewNode(i)
		if st := basestation.StationFor(stations, pos[i]); st >= 0 {
			nodes[i].Install(st, compiled[st])
		}
		rep := nodes[i].Start(pos[i], vel[i], now)
		res.SentUpdates++
		if rec != nil {
			res.ReferenceUpdates++
			srvRef.Apply(cqserver.Update{Node: i, Report: refReck[i].Start(pos[i], vel[i], now)})
		}
		if out.AdmitProbability >= 1 || admitRng.Bool(out.AdmitProbability) {
			srvCand.Apply(cqserver.Update{Node: i, Report: rep})
			res.AdmittedUpdates++
		}
	}

	collector := metrics.NewCollector(len(queries))
	evals := 0

	// Measured interval.
	for tick := 1; tick <= cfg.DurationTicks; tick++ {
		src.Step(dt)
		now = float64(cfg.WarmupTicks+tick) * dt
		pos, vel = src.Positions(), src.Velocities()

		// Keep the statistics fresh during measurement so periodic
		// re-adaptation (and post-run analysis) see current densities.
		if tick%cfg.StatSampleEvery == 0 {
			snapshotSpeeds()
			srvCand.ObserveStatistics(pos, speeds)
		}
		if cfg.ReAdaptEvery > 0 && tick%cfg.ReAdaptEvery == 0 {
			out, err = shedding.ConfigurePolicy(pol, srvCand, cfg.Z, shedOpts)
			if err != nil {
				return nil, err
			}
			deploy, err = basestation.NewDeployment(stations, out.Partitioning, out.Deltas)
			if err != nil {
				return nil, err
			}
			for i, a := range deploy.Assignments {
				compiled[i] = mobilenode.Compile(a)
			}
			// Stations rebroadcast: every camped node refreshes its
			// stored subset.
			for _, nd := range nodes {
				if st := nd.Station(); st >= 0 {
					nd.Install(st, compiled[st])
				}
			}
			res.ConfigElapsed += out.Elapsed
		}

		handoff := tick%cfg.HandoffEvery == 0
		for i := 0; i < n; i++ {
			// Reference system: Δ⊢ everywhere.
			if rec != nil {
				if rep, send := refReck[i].Observe(pos[i], vel[i], now, minDelta); send {
					srvRef.Apply(cqserver.Update{Node: i, Report: rep})
					res.ReferenceUpdates++
				}
			}
			// Candidate system: region-dependent Δ with hand-offs.
			nd := nodes[i]
			if handoff {
				cur := nd.Station()
				if cur < 0 || !stations[cur].Covers(pos[i]) {
					if st := basestation.StationFor(stations, pos[i]); st >= 0 {
						nd.Install(st, compiled[st])
					}
				}
			}
			if rep, send := nd.Observe(pos[i], vel[i], now, minDelta); send {
				res.SentUpdates++
				if out.AdmitProbability >= 1 || admitRng.Bool(out.AdmitProbability) {
					srvCand.Apply(cqserver.Update{Node: i, Report: rep})
					res.AdmittedUpdates++
				}
			}
		}

		if tick%cfg.EvalEvery == 0 {
			var rt *referenceTick
			if rec != nil {
				rec.ticks = append(rec.ticks, recordTick(srvRef, now, n, res.ReferenceUpdates))
				rt = &rec.ticks[len(rec.ticks)-1]
			} else {
				rt = &ref.ticks[evals]
				res.ReferenceUpdates = rt.updates
			}
			evals++
			candResults := srvCand.Evaluate(now)
			roundCE, roundN := 0.0, 0
			for q := range queries {
				if ce, ok := metrics.ContainmentError(candResults[q], rt.results[q]); ok {
					collector.RecordContainment(q, ce)
					roundCE += ce
					roundN++
				}
				pe, ok := metrics.PositionError(candResults[q],
					func(id int) (geo.Point, bool) { return srvCand.PredictedPosition(id, now) },
					func(id int) (geo.Point, bool) { return rt.pos[id], true },
				)
				if ok {
					collector.RecordPosition(q, pe)
				}
			}
			if cfg.Telemetry != nil {
				serSent.Append(now, float64(res.SentUpdates))
				serAdmitted.Append(now, float64(res.AdmittedUpdates))
				serRef.Append(now, float64(res.ReferenceUpdates))
				if roundN > 0 {
					serContain.Append(now, roundCE/float64(roundN))
				}
			}
		}
	}

	if rec != nil {
		rec.updates = res.ReferenceUpdates
		env.ref = rec
	} else {
		res.ReferenceUpdates = ref.updates
	}
	for _, nd := range nodes {
		res.Handoffs += nd.Handoffs
	}
	res.Metrics = collector.Summary()
	res.PerQueryContainment = collector.PerQueryContainment()
	if res.ReferenceUpdates > 0 {
		res.AchievedFraction = float64(res.AdmittedUpdates) / float64(res.ReferenceUpdates)
	}
	return res, nil
}
