// Package controlplane is the single home of the LIRA adaptation
// pipeline: statistics snapshot → space partitioning → throttler setting
// → THROTLOOP feedback. The engine (cqserver.Server) delegates its
// Adapt/AdaptAuto body to a Plane, so the GRIDREDUCE → GREEDYINCREMENT
// wiring — and its telemetry — exists exactly once in the codebase.
//
// The partitioning/assignment stages are pluggable through Policy. The
// paper's region-aware LIRA policy is the default; the §4-style baselines
// (uniform grid, uniform-Δ, region-oblivious single-Δ) plug into the same
// pipeline, which is what lets experiments compare shedding policies at
// equal throttle fraction without duplicating any wiring.
//
// A Plane is parameterized by two narrow sources instead of a concrete
// server: a StatsSource supplying the statistics grid to partition and a
// RateSource supplying the (λ, μ) window measurements THROTLOOP feeds on.
// The pipeline itself is deterministic — identical grid contents and z
// produce bit-identical Δᵢ tables. Telemetry is passive and optional,
// exactly as in the engine (see the telemetry package's contract).
package controlplane

import (
	"fmt"
	"time"

	"lira/internal/fmodel"
	"lira/internal/partition"
	"lira/internal/queue"
	"lira/internal/spans"
	"lira/internal/statgrid"
	"lira/internal/telemetry"
	"lira/internal/throtloop"
	"lira/internal/throttler"
)

// Env carries the pipeline parameters shared by every policy: the region
// budget, the update reduction function, and the GREEDYINCREMENT knobs.
type Env struct {
	// L is the number of shedding regions.
	L int
	// Curve is the update reduction function f(Δ).
	Curve *fmodel.Curve
	// Fairness is the fairness threshold Δ⇔.
	Fairness float64
	// UseSpeed enables the §3.1.2 speed factor.
	UseSpeed bool
	// ProtectQueries enables the query-protective drill-down extension
	// (see partition.Config.ProtectQueries); 0 is the paper's algorithm.
	ProtectQueries float64
}

// StatsSource supplies the statistics grid an adaptation partitions: the
// server's own grid. It is an interface so that this package need not
// import the server that embeds it.
type StatsSource interface {
	StatsGrid() *statgrid.Grid
}

// RateSource supplies the (λ, μ) window measurement THROTLOOP feeds on,
// resetting the window. The server's bounded input queue satisfies it.
type RateSource interface {
	Rates(window float64) (lambda, mu float64)
}

// Adaptation is the output of one adaptation cycle, ready for the
// base-station layer.
type Adaptation struct {
	Z            float64
	Partitioning *partition.Partitioning
	Deltas       []float64
	// BudgetMet is false when z is below the system's minimum achievable
	// expenditure and every throttler saturated at Δ⊣.
	BudgetMet bool
	// Elapsed is the wall-clock cost of the cycle (partitioning +
	// throttler setting; THROTLOOP is O(1) and included).
	Elapsed time.Duration
}

// Plan is the output of one stateless policy evaluation: the partitioning
// and the full GREEDYINCREMENT result (or its policy-specific
// equivalent), without touching any THROTLOOP state.
type Plan struct {
	// Policy is the evaluating policy's name.
	Policy string
	// Z is the throttle fraction the plan was computed for.
	Z            float64
	Partitioning *partition.Partitioning
	Result       *throttler.Result
}

// Evaluate runs one policy statelessly over a grid: partition, then
// assign. Figure sweeps and policy comparisons use it; engines go through
// a Plane, which adds THROTLOOP and telemetry around the same two stages.
func Evaluate(pol Policy, g *statgrid.Grid, z float64, env Env) (*Plan, error) {
	if pol == nil {
		pol = LiraPolicy{}
	}
	p, err := pol.Partition(g, z, env)
	if err != nil {
		return nil, err
	}
	res, err := pol.Assign(p, z, env)
	if err != nil {
		return nil, err
	}
	return &Plan{Policy: pol.Name(), Z: z, Partitioning: p, Result: res}, nil
}

// Config parameterizes a Plane.
type Config struct {
	// Env carries the pipeline parameters.
	Env Env
	// Policy selects the partition/assign stages; nil selects LiraPolicy.
	Policy Policy
	// Stats supplies the statistics grid each adaptation partitions.
	Stats StatsSource
	// Rates supplies the (λ, μ) measurements for AdaptAuto.
	Rates RateSource
	// QueueCap is the input-queue bound B THROTLOOP targets.
	QueueCap int
	// Telemetry, when non-nil, receives the adaptation stage histograms,
	// the adaptations counter, the throttle-fraction gauge, and a decision
	// record for every THROTLOOP / repartition / assignment action.
	// Telemetry is passive: Plane decisions are identical without it.
	Telemetry *telemetry.Hub
}

// Plane is one engine's control plane: the THROTLOOP controller plus the
// policy-driven adaptation pipeline. Methods are single-caller, like the
// engine drive loops that own them.
type Plane struct {
	cfg    Config
	pol    Policy
	loop   *throtloop.Controller
	zClamp func(float64) float64
	tel    *planeTelemetry
}

// planeTelemetry holds the control plane's pre-resolved metric pointers
// (one registry lookup at construction, one atomic per event afterwards).
// Nil when no Hub is configured.
type planeTelemetry struct {
	hub *telemetry.Hub

	gridReduceHist    *telemetry.Histogram // lira_gridreduce_seconds
	setThrottlersHist *telemetry.Histogram // lira_set_throttlers_seconds
	zGauge            *telemetry.Gauge     // lira_throttle_z
	adapts            *telemetry.Counter   // lira_adaptations_total
}

func newPlaneTelemetry(hub *telemetry.Hub) *planeTelemetry {
	if hub == nil {
		return nil
	}
	r := hub.Registry
	return &planeTelemetry{
		hub:               hub,
		gridReduceHist:    r.Histogram("lira_gridreduce_seconds", nil),
		setThrottlersHist: r.Histogram("lira_set_throttlers_seconds", nil),
		zGauge:            r.Gauge("lira_throttle_z"),
		adapts:            r.Counter("lira_adaptations_total"),
	}
}

// New validates cfg and returns a control plane.
func New(cfg Config) (*Plane, error) {
	if cfg.Stats == nil {
		return nil, fmt.Errorf("controlplane: nil stats source")
	}
	if cfg.Rates == nil {
		return nil, fmt.Errorf("controlplane: nil rate source")
	}
	if cfg.Env.Curve == nil {
		return nil, fmt.Errorf("controlplane: nil update reduction curve")
	}
	loop, err := throtloop.New(cfg.QueueCap)
	if err != nil {
		return nil, err
	}
	p := &Plane{cfg: cfg, pol: cfg.Policy, loop: loop, tel: newPlaneTelemetry(cfg.Telemetry)}
	if p.pol == nil {
		p.pol = LiraPolicy{}
	}
	if p.tel != nil {
		hub := p.tel.hub
		zGauge := p.tel.zGauge
		zGauge.Set(1)
		b := cfg.QueueCap
		loop.SetRecorder(func(rho, z float64, _ int) {
			zGauge.Set(z)
			hub.Record(telemetry.Record{
				Kind:      telemetry.KindThrotloop,
				Throtloop: &telemetry.ThrotloopEvent{Rho: rho, Z: z, B: b},
			})
		})
	}
	return p, nil
}

// Policy returns the active policy.
func (p *Plane) Policy() Policy { return p.pol }

// SetPolicy swaps the partition/assign policy; nil resets to LiraPolicy.
// The THROTLOOP state is kept — z is a property of the load, not of the
// policy spending it.
func (p *Plane) SetPolicy(pol Policy) {
	if pol == nil {
		pol = LiraPolicy{}
	}
	p.pol = pol
}

// Throttle exposes the THROTLOOP controller.
func (p *Plane) Throttle() *throtloop.Controller { return p.loop }

// SetZClamp installs a tightening applied to every throttle fraction
// entering the pipeline — Adapt's explicit z and AdaptAuto's THROTLOOP
// output alike. The admission controller uses it to hand the plane a
// health-capped effective z (warning/shed cap it, critical forces the
// floor); nil removes the clamp. The clamped z is what the partitioning,
// the Δᵢ assignment, and the journal records see: it is the fraction
// actually spent. fn must be safe to call from the plane's caller.
func (p *Plane) SetZClamp(fn func(float64) float64) { p.zClamp = fn }

// spans returns the hub's span tracer (nil without a hub or tracer; the
// returned value is nil-safe either way).
func (p *Plane) spans() *spans.Tracer {
	if p.tel == nil {
		return nil
	}
	return p.tel.hub.Spans()
}

// Adapt runs one adaptation cycle with an explicit throttle fraction z —
// the manually-set budget mode of §2.1. Use AdaptAuto for closed-loop
// control.
func (p *Plane) Adapt(z float64) (*Adaptation, error) {
	root := p.spans().Start("adapt", "controlplane")
	ad, err := p.adapt(z, root)
	if err == nil {
		root = root.Num("z", ad.Z).Num("regions", float64(len(ad.Partitioning.Regions)))
	}
	root.End()
	return ad, err
}

// adapt is the cycle body shared by Adapt and AdaptAuto; sub-spans for
// the GRIDREDUCE and GREEDYINCREMENT stages hang off the caller's root
// span (inert when tracing is off or the root was unsampled).
func (p *Plane) adapt(z float64, root spans.Ctx) (*Adaptation, error) {
	if p.zClamp != nil {
		z = p.zClamp(z)
	}
	start := time.Now()
	sp := root.Child("gridreduce", "controlplane")
	part, err := p.pol.Partition(p.cfg.Stats.StatsGrid(), z, p.cfg.Env)
	if err != nil {
		return nil, err
	}
	sp.Num("z", z).Num("regions", float64(len(part.Regions))).End()
	var mid time.Time
	if p.tel != nil {
		mid = time.Now()
	}
	sp = root.Child("greedyincrement", "controlplane")
	res, err := p.pol.Assign(part, z, p.cfg.Env)
	if err != nil {
		return nil, err
	}
	sp.Num("fairness_clamps", float64(res.FairnessClamps)).End()
	if p.tel != nil {
		end := time.Now()
		p.tel.gridReduceHist.Observe(mid.Sub(start).Seconds())
		p.tel.setThrottlersHist.Observe(end.Sub(mid).Seconds())
		p.tel.adapts.Inc()
		p.tel.hub.Record(telemetry.Record{
			Kind: telemetry.KindRepartition,
			Repartition: &telemetry.RepartitionEvent{
				Z:              z,
				Regions:        len(part.Regions),
				SplitsTaken:    part.Drill.SplitsTaken,
				SplitsRejected: part.Drill.SplitsRejected,
				ProtectSplits:  part.Drill.ProtectSplits,
			},
		})
		p.tel.hub.Record(telemetry.Record{
			Kind: telemetry.KindAssign,
			Assign: &telemetry.AssignEvent{
				Z:              z,
				Regions:        len(part.Regions),
				Deltas:         append([]float64(nil), res.Deltas...),
				Gains:          append([]float64(nil), res.Gains...),
				FairnessClamps: res.FairnessClamps,
				BudgetMet:      res.BudgetMet,
			},
		})
	}
	return &Adaptation{
		Z:            z,
		Partitioning: part,
		Deltas:       res.Deltas,
		BudgetMet:    res.BudgetMet,
		Elapsed:      time.Since(start),
	}, nil
}

// AdaptAuto measures the rate source over the given window, steps
// THROTLOOP, and runs the adaptation cycle at the resulting throttle
// fraction. A non-positive or idle window measures ρ = 0, which resets
// the controller to z = 1 (underload: stop shedding).
func (p *Plane) AdaptAuto(window float64) (*Adaptation, error) {
	root := p.spans().Start("adapt", "controlplane").Str("mode", "auto")
	sp := root.Child("throtloop", "controlplane")
	lambda, mu := p.cfg.Rates.Rates(window)
	rho := queue.Utilization(lambda, mu)
	z := p.loop.Observe(rho)
	sp.Num("rho", rho).Num("z", z).End()
	ad, err := p.adapt(z, root)
	if err == nil {
		root = root.Num("z", ad.Z).Num("regions", float64(len(ad.Partitioning.Regions)))
	}
	root.End()
	return ad, err
}
