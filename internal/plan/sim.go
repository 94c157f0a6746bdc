// Package plan is the deterministic capacity planner behind liraplan: it
// replays catalog scenarios (internal/workload) through a closed-loop
// capacity model of the full server stack — engine, admission ladder,
// THROTLOOP, and a controlplane policy — and sweeps drain capacity,
// throttle clamp z, and policy to find the cheapest configuration whose
// worst case still meets an operator SLO (p99 Evaluate latency, mean
// inaccuracy, maximum admission rung). Everything is a pure function of
// (seed, config): model-time telemetry, seeded workloads, and a modeled
// latency clock keep the emitted artifact byte-reproducible, so two
// operators running the same plan get the same recommendation.
package plan

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"

	"lira/internal/admission"
	"lira/internal/controlplane"
	"lira/internal/cqserver"
	"lira/internal/fmodel"
	"lira/internal/geo"
	"lira/internal/motion"
	"lira/internal/rng"
	"lira/internal/telemetry"
	"lira/internal/throttler"
	"lira/internal/workload"
)

// Capacity-model constants. Work is measured in update-equivalents (one
// unit = fully processing one admitted report); an Evaluate round's work
// divided by the configured capacity Capacity·Rate gives its modeled
// latency in ticks (= model seconds). The mix makes every scenario axis
// visible: ingest volume through workApply, standing query load through
// workQuery, result fan-out through workRow, and churn-storm registration
// through workRebuild.
const (
	workApply   = 1.0
	workQuery   = 0.2
	workRow     = 0.02
	workRebuild = 1.0

	evalEvery  = 2 // ticks between Evaluate rounds
	adaptEvery = 5 // ticks between AdaptAuto cycles
)

// latencyBoundsMS is the fixed histogram bucketing for modeled Evaluate
// latency: geometric from sub-millisecond to tens of seconds, so
// Histogram.Quantile reports a deterministic bucket edge at any overload
// severity.
func latencyBoundsMS() []float64 {
	bounds := make([]float64, 0, 16)
	for ms := 0.5; ms <= 17000; ms *= 2 {
		bounds = append(bounds, ms)
	}
	return bounds
}

// SimConfig is one cell of the sweep: a scenario replayed against one
// candidate server configuration.
type SimConfig struct {
	// Scenario is the catalog name (workload.CatalogNames).
	Scenario string
	// Space is the monitored area (origin-anchored square).
	Space geo.Rect
	// Nodes is the fleet size, Rate the scenario's baseline aggregate
	// report rate in updates per tick.
	Nodes int
	Rate  float64
	// Seed drives the scenario and the source-throttle thinning.
	Seed uint64
	// Capacity is the candidate drain capacity as a multiple of Rate:
	// Capacity·Rate updates per tick (1 exactly keeps up with the
	// baseline).
	Capacity float64
	// ZClamp is the candidate throttle ceiling: adaptations may choose any
	// z ≤ ZClamp, and sources thin their reports to the chosen z.
	ZClamp float64
	// Policy is the controlplane policy name (controlplane.Policies).
	Policy string
	// L is the shedding-region count (0 selects 13).
	L int
	// JournalSink, when non-nil, receives the run's telemetry journal as
	// JSONL — the byte stream the determinism tests compare.
	JournalSink io.Writer
}

// Outcome is the measured result of one simulation cell.
type Outcome struct {
	Scenario string  `json:"scenario"`
	Capacity float64 `json:"capacity"`
	ZClamp   float64 `json:"z_clamp"`
	Policy   string  `json:"policy"`

	// P99LatencyMS is the 99th-percentile modeled Evaluate latency via
	// telemetry.Histogram.Quantile, in milliseconds.
	P99LatencyMS float64 `json:"p99_latency_ms"`
	// MeanInaccuracyM is the query-weighted mean shedding imprecision in
	// meters: the throttler objective Σ mᵢ·Δᵢ normalized by Σ mᵢ,
	// averaged over the run's adaptations.
	MeanInaccuracyM float64 `json:"mean_inaccuracy_m"`
	// MaxRung is the highest admission-ladder state the run reached.
	MaxRung string `json:"max_rung"`

	Arrived     int64  `json:"arrived"`
	Applied     int64  `json:"applied"`
	Dropped     int64  `json:"dropped"`
	PreShed     int64  `json:"pre_shed"`
	SourceThin  int64  `json:"source_thinned"`
	Adaptations int    `json:"adaptations"`
	Evaluations int    `json:"evaluations"`
	ResultHash  string `json:"result_hash"`

	maxRung admission.State
}

// MeetsSLO reports whether the outcome satisfies every axis of the SLO.
func (o *Outcome) MeetsSLO(slo SLO) bool {
	return o.P99LatencyMS <= slo.P99LatencyMS &&
		o.MeanInaccuracyM <= slo.MaxInaccuracyM &&
		o.maxRung <= slo.MaxRung
}

// Simulate replays one scenario against one candidate configuration and
// measures it. The loop models the full production tick: the scenario
// emits, sources thin to the adapted z, the admission ladder gates what
// remains, the engine ingests (shed-oldest), drains at the configured
// capacity, and periodically evaluates and re-adapts. Model time drives
// the telemetry clock, so the journal — and therefore the artifact — is a
// pure function of (seed, config).
func Simulate(cfg SimConfig) (*Outcome, error) {
	if cfg.Capacity <= 0 {
		return nil, fmt.Errorf("plan: non-positive capacity %v", cfg.Capacity)
	}
	if cfg.ZClamp <= 0 || cfg.ZClamp > 1 {
		return nil, fmt.Errorf("plan: z clamp must be in (0,1], got %v", cfg.ZClamp)
	}
	if cfg.L <= 0 {
		cfg.L = 13
	}
	pol, err := policyByName(cfg.Policy)
	if err != nil {
		return nil, err
	}
	scen, err := workload.BuildScenario(cfg.Scenario, cfg.Space, cfg.Nodes, cfg.Rate, cfg.Seed)
	if err != nil {
		return nil, err
	}

	now := 0.0
	hub := telemetry.NewHub(0)
	hub.SetClock(func() float64 { return now })
	if cfg.JournalSink != nil {
		hub.Journal.SetSink(cfg.JournalSink)
	}
	latency := hub.Registry.Histogram("liraplan_eval_latency_ms", latencyBoundsMS())

	queueSize := int(8 * cfg.Rate)
	if queueSize < 4 {
		queueSize = 4
	}
	eng, err := cqserver.New(cqserver.Config{
		Space:     cfg.Space,
		Nodes:     cfg.Nodes,
		L:         cfg.L,
		QueueSize: queueSize,
		Curve:     fmodel.Hyperbolic(5, 100, 19),
		Telemetry: hub,
	})
	if err != nil {
		return nil, err
	}
	adm, err := admission.New(admission.Config{
		// Queue occupancy only: the process-health signals would drag wall
		// time into the plan, and the planner must stay seed-pure.
		Thresholds:    admission.Thresholds{QueueFrac: [3]float64{0.50, 0.80, 0.95}},
		EscalateAfter: 2,
		RecoverAfter:  5,
		Actions:       eng,
		Telemetry:     hub,
	})
	if err != nil {
		return nil, err
	}
	zCap := cfg.ZClamp
	eng.ControlPlane().SetZClamp(func(z float64) float64 {
		if z > zCap {
			z = zCap
		}
		return adm.ClampZ(z)
	})
	eng.ControlPlane().SetPolicy(pol)

	out := &Outcome{
		Scenario: cfg.Scenario,
		Capacity: cfg.Capacity,
		ZClamp:   cfg.ZClamp,
		Policy:   cfg.Policy,
	}
	capacity := cfg.Capacity * cfg.Rate
	drainBudget := int(capacity)
	thin := rng.New(cfg.Seed).Split(0x7417)
	resHash := fnv.New64a()
	var hword [8]byte

	zEff := cfg.ZClamp // sources run at the clamp until the first adaptation
	var buf []cqserver.Update
	var positions []geo.Point
	var speeds []float64
	queries := 0
	rebuilds := 0
	appliedAtEval := int64(0)
	inaccSum, inaccN := 0.0, 0
	sawStats := false

	for tick := 0; tick < scen.Ticks(); tick++ {
		now = float64(tick)
		if qs, ok := scen.Queries(tick); ok {
			eng.RegisterQueries(qs)
			queries = len(qs)
			if tick > 0 {
				rebuilds++
			}
		}

		buf = buf[:0]
		scen.Emit(now, func(node int, pos geo.Point, vel geo.Vector) {
			// Source-side throttling: the adapted z is the fraction of the
			// full update expenditure retained, modeled as thinning.
			if zEff < 1 && !thin.Bool(zEff) {
				out.SourceThin++
				return
			}
			buf = append(buf, cqserver.Update{
				Node:   node,
				Report: motion.Report{Pos: pos, Vel: vel, Time: now},
			})
		})

		admit := adm.AdmitN(len(buf))
		admitted := buf[len(buf)-admit:]
		eng.IngestShedOldestBatch(admitted)

		occ := 0.0
		if c := eng.QueueCap(); c > 0 {
			occ = float64(eng.QueueLen()) / float64(c)
		}
		adm.Observe(admission.Signals{QueueFrac: occ})
		if st := adm.State(); st > out.maxRung {
			out.maxRung = st
		}

		drained := eng.Drain(drainBudget)
		eng.ObserveBusy(float64(drained) / capacity)

		if len(admitted) > 0 {
			positions = positions[:0]
			speeds = speeds[:0]
			for _, u := range admitted {
				positions = append(positions, u.Report.Pos)
				speeds = append(speeds, u.Report.Vel.Len())
			}
			eng.ObserveStatistics(positions, speeds)
			sawStats = true
		}

		if tick%evalEvery == 0 {
			results := eng.Evaluate(now)
			rows := 0
			for _, ids := range results {
				rows += len(ids)
				for _, id := range ids {
					putUint64(&hword, uint64(id))
					resHash.Write(hword[:])
				}
				putUint64(&hword, math.MaxUint64) // row separator
				resHash.Write(hword[:])
			}
			applied := eng.Applied()
			work := workApply*float64(applied-appliedAtEval) +
				workQuery*float64(queries) +
				workRow*float64(rows) +
				workRebuild*float64(rebuilds*queries)
			appliedAtEval = applied
			rebuilds = 0
			latency.Observe(work / capacity * 1000) // ticks are model seconds
			out.Evaluations++
		}

		if tick > 0 && tick%adaptEvery == 0 && sawStats {
			ad, err := eng.AdaptAuto(adaptEvery)
			if err != nil {
				return nil, fmt.Errorf("plan: adapt at tick %d: %w", tick, err)
			}
			zEff = ad.Z
			stats := ad.Partitioning.Stats()
			mSum := 0.0
			for _, st := range stats {
				mSum += st.M
			}
			if mSum > 0 {
				inaccSum += throttler.InAccuracy(stats, ad.Deltas) / mSum
				inaccN++
			}
			out.Adaptations++
		}
	}

	out.P99LatencyMS = latency.Quantile(0.99)
	if inaccN > 0 {
		out.MeanInaccuracyM = inaccSum / float64(inaccN)
	}
	out.MaxRung = out.maxRung.String()
	out.Arrived = eng.Arrived()
	out.Applied = eng.Applied()
	out.Dropped = eng.Dropped()
	out.PreShed = adm.PreShed()
	out.ResultHash = fmt.Sprintf("%016x", resHash.Sum64())
	return out, nil
}

func putUint64(b *[8]byte, v uint64) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}

func policyByName(name string) (controlplane.Policy, error) {
	for _, pol := range controlplane.Policies() {
		if pol.Name() == name {
			return pol, nil
		}
	}
	return nil, fmt.Errorf("plan: unknown policy %q", name)
}
