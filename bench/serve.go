package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime/debug"
	"sync"
	"time"

	"lira/internal/admission"
	"lira/internal/cqserver"
	"lira/internal/fmodel"
	"lira/internal/geo"
	"lira/internal/mobilenode"
	"lira/internal/motion"
	"lira/internal/netsvc"
	"lira/internal/telemetry"
	"lira/internal/wire"
	"lira/internal/workload"
)

// Server parameters shared by both serving workloads, as cmd/lirad sets
// them (telemetry hub attached, K=1, spans off) apart from the queue and
// the two periods, which serveConfig sizes.
const (
	serveL        = 250
	serveZ        = 0.5
	serveFairness = 50
	minDelta      = 5 // Δ⊢, the fallback threshold before any broadcast
	setupRepeats  = 3
	maxFrameRecs  = 8192
)

// serverConfig is the netsvc configuration of a serving workload.
func (c serveConfig) serverConfig(space geo.Rect, hub *telemetry.Hub) netsvc.ServerConfig {
	return netsvc.ServerConfig{
		Core: cqserver.Config{
			Space:     space,
			Nodes:     c.totalNodes(),
			L:         serveL,
			QueueSize: c.queueSize,
			Curve:     fmodel.Hyperbolic(5, 100, 95),
			Fairness:  serveFairness,
		},
		Shards:     1,
		Z:          serveZ,
		AdaptEvery: seconds(c.adaptEvery),
		EvalEvery:  seconds(c.evalEvery),
		Telemetry:  hub,
		Admission:  &admission.Config{},
	}
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// serveResult is what one serving run measured.
type serveResult struct {
	setup       []float64 // seconds per set-up
	r2r         quantiles // ms, misses excluded
	probes      int
	missed      int
	register    quantiles // ms
	regSent     int
	regMissed   int
	goodput     float64 // records applied per second
	loss        float64 // (preshed + ringshed + invalid) / offered
	ec          float64 // mean containment error of scored results
	ecSamples   int
	frames      int // result frames received while measuring
	assignBytes int // payload size of the last Δᵢ broadcast
	ledger      netsvc.LedgerView
	panics      int64
	transitions int64 // admission-ladder rung changes
	gen         genStats
	rec         *recording // non-nil when the run was recorded for replay
}

// genStats is how closely the generator kept its schedule.
type genStats struct {
	late    quantiles // ms past due at send
	busy    float64   // fraction of the run the gateway spent sending
	sentRPS float64   // records sent per second
	behind  bool      // the tail of late sends exceeded one evaluation period
}

// recording is the input one serving run sent, in send order, for the
// in-process replay.
type recording struct {
	base   float64 // server clock at the schedule origin
	warm   int     // leading frames sent during warm-up
	frames []recFrame
	regs   []reregistration
}

type recFrame struct {
	due   float64
	frame []byte
}

// serveRun is one serving workload's server plus its two connections.
type serveRun struct {
	in  *serveInputs
	hub *telemetry.Hub
	srv *netsvc.Server
	gw  *frameConn // gateway: UpdateBatch frames out, assignments in
	sub *frameConn // subscriber: queries out, results in

	// Gateway-owned state.
	compiled    *mobilenode.Compiled
	assignments int
	assignBytes int
	nodes       []*mobilenode.Node // serve-steady fleet
	ref         []motion.Report    // serve-flash: each node's last emitted report
	batch       wire.UpdateBatch
	sent        int64
	rec         *recording
}

// runServe sets the server up setupRepeats times (keeping the last),
// then drives it for secs seconds and checks its outputs.
func runServe(cfg serveConfig, seed uint64, secs float64, record bool) (*serveResult, error) {
	in, err := newServeInputs(cfg, seed, secs)
	if err != nil {
		return nil, err
	}
	res := &serveResult{}
	var r *serveRun
	for i := 0; i < setupRepeats; i++ {
		if r != nil {
			r.tearDown()
		}
		// Each set-up starts from a collected heap, so peak memory does
		// not depend on when the collector last ran.
		debug.FreeOSMemory()
		r = &serveRun{in: in}
		if record && i == setupRepeats-1 {
			// The replay starts from the same warm-up as the measured run.
			r.rec = &recording{}
		}
		start := time.Now()
		if err := r.setUp(); err != nil {
			r.tearDown()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.setup = append(res.setup, time.Since(start).Seconds())
	}
	if record {
		for _, rr := range in.reregs {
			if rr.Due < secs {
				r.rec.regs = append(r.rec.regs, rr)
			}
		}
	}
	err = r.measure(res, secs)
	r.tearDown()
	if err != nil {
		return nil, err
	}
	res.ledger = r.srv.Ledger()
	res.panics = r.srv.Counters().Panics.Load()
	res.rec = r.rec
	return res, nil
}

func (r *serveRun) tearDown() {
	if r.gw != nil {
		r.gw.close()
	}
	if r.sub != nil {
		r.sub.close()
	}
	if r.srv != nil {
		r.srv.Close()
	}
}

// setUp starts the server, registers every query, and warms it up: each
// node's first report applied, one adaptation on the warmed statistics,
// and its broadcast received by the gateway.
func (r *serveRun) setUp() error {
	in, cfg := r.in, r.in.cfg
	r.hub = telemetry.NewHub(0)
	srv, err := netsvc.Listen("127.0.0.1:0", cfg.serverConfig(in.space, r.hub))
	if err != nil {
		return err
	}
	r.srv = srv
	addr := srv.Addr().String()
	if r.gw, err = dialFrames(addr); err != nil {
		return err
	}
	if r.sub, err = dialFrames(addr); err != nil {
		return err
	}
	hello := wire.Hello{Node: 0, Pos: in.space.Center(), Version: wire.HelloV2, Flags: wire.HelloFlagBatch}
	if err := r.gw.send(wire.AppendHello(nil, hello)); err != nil {
		return err
	}
	if err := r.gw.await(10*time.Second, r.onGateway, func() bool { return r.assignments > 0 }); err != nil {
		return fmt.Errorf("first assignment: %w", err)
	}

	// Queries, in the server's push order: the probe query first, so its
	// result is not queued behind the others, then the standing queries,
	// then the re-registering ids on their first rect. The server answers
	// a connection's registrations in order, so the reply to the last one
	// (the first frame carrying its id) comes after all the others.
	var frame []byte
	regs := in.registrations()
	for _, q := range regs {
		frame = wire.AppendQuery(frame, q)
	}
	if err := r.sub.send(frame); err != nil {
		return err
	}
	if err := r.sub.awaitResult(regs[len(regs)-1].ID); err != nil {
		return fmt.Errorf("registration: %w", err)
	}

	// Warm-up: every node's first report.
	now := netsvc.WallClock()
	r.batch.Reset()
	if cfg.flash {
		r.ref = make([]motion.Report, cfg.nodes)
		in.scenario.(workload.MotionSource).Motions(0, func(node int, p geo.Point, v geo.Vector) {
			r.ref[node] = motion.Report{Pos: p, Vel: v, Time: now}
			r.batch.Append(wire.Update{Node: uint32(node), Report: r.ref[node]})
		})
	} else {
		in.fleet.Reset()
		pos, vel := in.fleet.Positions(), in.fleet.Velocities()
		r.nodes = make([]*mobilenode.Node, cfg.nodes)
		for i := range r.nodes {
			r.nodes[i] = mobilenode.NewNode(i)
			r.nodes[i].Install(0, r.compiled)
			rep := r.nodes[i].Start(pos[i], vel[i], now)
			r.batch.Append(wire.Update{Node: uint32(i), Report: rep})
		}
	}
	for i := 0; i < cfg.probes; i++ {
		r.batch.Append(wire.Update{Node: cfg.firstProbe() + uint32(i), Report: motion.Report{Pos: cfg.probeOut(), Time: now}})
	}
	for i, rr := range in.reregRects {
		for k := 0; k < 2; k++ {
			id := cfg.firstMarker() + uint32(2*i+k)
			r.batch.Append(wire.Update{Node: id, Report: motion.Report{Pos: rr[k].Center(), Time: now}})
		}
	}
	if err := r.sendBatch(0); err != nil {
		return err
	}
	offered := int64(r.batch.Len())
	if err := waitFor(30*time.Second, func() bool {
		l := srv.Ledger()
		return l.Offered == offered && l.Queued == 0
	}); err != nil {
		return fmt.Errorf("warm-up drain: %w", err)
	}
	// One tick must observe the warmed table before adapting on it.
	time.Sleep(seconds(cfg.evalEvery))
	before := r.assignments
	if err := srv.Adapt(); err != nil {
		return err
	}
	if err := r.gw.await(10*time.Second, r.onGateway, func() bool { return r.assignments > before }); err != nil {
		return err
	}
	// Catch the subscriber up with the pushes queued while warming up: the
	// reply to one more registration is queued behind all of them.
	sentinel := wire.Query{ID: cfg.sentinelQuery(), Rect: cfg.probeRect()}
	if err := r.sub.send(wire.AppendQuery(nil, sentinel)); err != nil {
		return err
	}
	return r.sub.awaitResult(sentinel.ID)
}

// waitFor polls cond until it holds or the timeout expires.
func waitFor(timeout time.Duration, cond func() bool) error {
	limit := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(limit) {
			return fmt.Errorf("timed out after %v", timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// onGateway handles a frame arriving on the gateway connection.
func (r *serveRun) onGateway(t wire.Type, payload []byte) error {
	if t != wire.TypeAssignment {
		return nil // the capability hello
	}
	a, err := wire.DecodeAssignment(payload)
	if err != nil {
		return err
	}
	r.compiled = compileAssignment(a)
	r.assignments++
	r.assignBytes = len(payload)
	return nil
}

// sendBatch encodes r.batch, split into frames of at most maxFrameRecs
// records, and sends it. When the run is recorded, each frame is kept
// with the time it was due.
func (r *serveRun) sendBatch(due float64) error {
	b := &r.batch
	for lo := 0; lo < b.Len(); lo += maxFrameRecs {
		hi := min(lo+maxFrameRecs, b.Len())
		part := wire.UpdateBatch{Node: b.Node[lo:hi], X: b.X[lo:hi], Y: b.Y[lo:hi],
			VX: b.VX[lo:hi], VY: b.VY[lo:hi], Time: b.Time[lo:hi]}
		r.gw.out = wire.AppendUpdateBatch(r.gw.out[:0], &part)
		if err := r.gw.send(r.gw.out); err != nil {
			return err
		}
		if r.rec != nil {
			r.rec.frames = append(r.rec.frames, recFrame{due: due, frame: append([]byte(nil), r.gw.out...)})
		}
	}
	r.sent += int64(b.Len())
	return nil
}

// truthLog holds the sampled queries' true membership as the gateway
// publishes it; the subscriber scores each result against the latest
// entry at its receipt. Only the last truthKeep entries are kept.
type truthLog struct {
	mu    sync.Mutex
	at    []float64 // schedule time each entry took effect, ascending
	truth [][][]int
}

const truthKeep = 16

func (l *truthLog) publish(at float64, truth [][]int) {
	l.mu.Lock()
	if len(l.at) == truthKeep {
		copy(l.at, l.at[1:])
		copy(l.truth, l.truth[1:])
		l.at, l.truth = l.at[:truthKeep-1], l.truth[:truthKeep-1]
	}
	l.at = append(l.at, at)
	l.truth = append(l.truth, truth)
	l.mu.Unlock()
}

// latest returns the entry in effect at time now (nil before the first).
func (l *truthLog) latest(now float64) [][]int {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := len(l.at) - 1; i >= 0; i-- {
		if l.at[i] <= now {
			return l.truth[i]
		}
	}
	return nil
}

// measure drives the open-loop load for secs seconds from two
// goroutines — the gateway and the subscriber — then waits for the
// server to quiesce and fills res.
func (r *serveRun) measure(res *serveResult, secs float64) error {
	cfg := r.in.cfg
	l0 := r.srv.Ledger()
	sent0 := r.sent
	truth := &truthLog{}
	var gwLate, subLate []float64
	var gwBusy float64
	var gwErr, subErr error
	origin := time.Now()
	base := netsvc.WallClock()
	if r.rec != nil {
		r.rec.base, r.rec.warm = base, len(r.rec.frames)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		gwLate, gwBusy, gwErr = r.gateway(origin, base, secs, truth)
	}()
	go func() {
		defer wg.Done()
		subLate, subErr = r.subscriber(origin, secs, truth, res)
	}()
	wg.Wait()
	if gwErr != nil {
		return fmt.Errorf("gateway: %w", gwErr)
	}
	if subErr != nil {
		return fmt.Errorf("subscriber: %w", subErr)
	}
	if err := waitFor(30*time.Second, func() bool { return r.srv.Ledger().Queued == 0 }); err != nil {
		return fmt.Errorf("final drain: %w", err)
	}
	l1 := r.srv.Ledger()
	offered := l1.Offered - l0.Offered
	lost := (l1.Preshed - l0.Preshed) + (l1.Ringshed - l0.Ringshed) + (l1.Invalid - l0.Invalid)
	res.goodput = float64(l1.Applied-l0.Applied) / secs
	if offered > 0 {
		res.loss = float64(lost) / float64(offered)
	}
	late := append(gwLate, subLate...)
	for i := range late {
		late[i] *= 1000
	}
	res.gen = genStats{
		late:    summarize(late),
		busy:    gwBusy / secs,
		sentRPS: float64(r.sent-sent0) / secs,
	}
	res.gen.behind = res.gen.late.Tail > 1000*cfg.evalEvery
	res.assignBytes = r.assignBytes
	res.transitions = r.srv.Admission().Transitions()
	return nil
}

// gateway sends the fleet's reports every stepEvery seconds until secs,
// with each due probe report riding at the end of the next batch, and
// applies every Δᵢ broadcast it receives meanwhile. It returns how late
// each send ran (seconds) and the seconds it spent sending.
func (r *serveRun) gateway(origin time.Time, base, secs float64, truth *truthLog) ([]float64, float64, error) {
	in, cfg := r.in, r.in.cfg
	var late []float64
	var busy float64
	installed := r.assignments
	fleetEvery := int(math.Round(cfg.fleetEvery / cfg.stepEvery)) // also the truth period
	perTick := int(math.Round(cfg.tickWall / cfg.stepEvery))
	var tick wire.UpdateBatch
	pos := make([]geo.Point, cfg.nodes)
	ref := r.ref
	pi := 0
	for f := 0; ; f++ {
		due := float64(f) * cfg.stepEvery
		if due >= secs {
			break
		}
		if err := r.gw.readUntil(origin.Add(seconds(due)), r.onGateway); err != nil {
			return nil, 0, err
		}
		t0 := time.Now()
		late = append(late, t0.Sub(origin).Seconds()-due)
		r.batch.Reset()
		now := base + due
		switch {
		case cfg.flash:
			k, j := f/perTick, f%perTick
			if j == 0 {
				// The scenario's next tick, its reports spread evenly over
				// the tick's batches.
				tick.Reset()
				in.scenario.Queries(k)
				in.scenario.Emit(float64(k), func(node int, p geo.Point, v geo.Vector) {
					tick.Append(wire.Update{Node: uint32(node), Report: motion.Report{Pos: p, Vel: v}})
				})
			}
			for i := j * tick.Len() / perTick; i < (j+1)*tick.Len()/perTick; i++ {
				u := tick.Update(i)
				u.Report.Time = now
				r.batch.Append(u)
				ref[u.Node] = u.Report
			}
			if f%fleetEvery == 0 {
				// The truth is the reference system every report reaches:
				// each node's last emitted report, dead-reckoned to now.
				for i := range pos {
					pos[i] = ref[i].Predict(now)
				}
				truth.publish(due, in.truthAt(pos))
			}
		case f%fleetEvery == 0:
			if r.assignments != installed {
				installed = r.assignments
				for _, n := range r.nodes {
					n.Install(0, r.compiled)
				}
			}
			if f > 0 {
				in.fleet.Step(cfg.fleetEvery)
			}
			p, v := in.fleet.Positions(), in.fleet.Velocities()
			for i, n := range r.nodes {
				if rep, send := n.Observe(p[i], v[i], now, minDelta); send {
					r.batch.Append(wire.Update{Node: uint32(i), Report: rep})
				}
			}
			truth.publish(due, in.truthAt(p))
		}
		for ; pi < len(in.probes) && in.probes[pi].Due <= due; pi++ {
			pr := in.probes[pi]
			at := cfg.probeOut()
			if pr.In {
				at = cfg.probeRect().Center()
			}
			r.batch.Append(wire.Update{Node: pr.Node, Report: motion.Report{Pos: at, Time: base + pr.Due}})
		}
		if r.batch.Len() > 0 {
			if err := r.sendBatch(due); err != nil {
				return nil, 0, err
			}
		}
		busy += time.Since(t0).Seconds()
	}
	return late, busy, nil
}

// subscriber sends each scheduled re-registration when due and matches
// every result frame against the generator's ground truth: probe
// membership, re-registration markers, and the sampled queries' E^C. It
// keeps reading probeLimit past secs so in-flight probes resolve.
func (r *serveRun) subscriber(origin time.Time, secs float64, truth *truthLog, res *serveResult) ([]float64, error) {
	in, cfg := r.in, r.in.cfg
	probes := newProbeMatcher(in.probes, cfg.probeLimit)
	sampled := make(map[uint32]int, len(in.sampled))
	for i, qi := range in.sampled {
		sampled[uint32(qi)] = i
	}
	pending := map[uint32]reregistration{}
	var regLat, late []float64
	var ecSum float64
	handle := func(t wire.Type, payload []byte) error {
		if t != wire.TypeResult {
			return nil
		}
		// Only the probe, re-registered, and sampled queries' results are
		// decoded; the rest are counted after a framing check.
		if len(payload) < 8 || int(binary.LittleEndian.Uint32(payload[4:]))*4 != len(payload)-8 {
			return fmt.Errorf("malformed result frame of %d bytes", len(payload))
		}
		id := binary.LittleEndian.Uint32(payload)
		res.frames++
		if _, ok := sampled[id]; !ok && id < cfg.probeQuery() {
			return nil
		}
		out, err := wire.DecodeResult(payload)
		if err != nil {
			return err
		}
		now := time.Since(origin).Seconds()
		switch {
		case out.ID == cfg.probeQuery():
			probes.observe(now, out.Nodes)
		case out.ID >= cfg.firstRereg():
			if p, ok := pending[out.ID]; ok && contains(out.Nodes, p.Want) && !contains(out.Nodes, p.Unwanted) {
				regLat = append(regLat, 1000*(now-p.Due))
				delete(pending, out.ID)
			}
		default:
			if i, ok := sampled[out.ID]; ok {
				if sets := truth.latest(now); sets != nil {
					if ce, ok := scoreEC(out.Nodes, sets[i], cfg.nodes); ok {
						ecSum += ce
						res.ecSamples++
					}
				}
			}
		}
		return nil
	}
	end := secs + cfg.probeLimit
	ri := 0
	var frame []byte
	for {
		now := time.Since(origin).Seconds()
		for ; ri < len(in.reregs) && in.reregs[ri].Due <= now && in.reregs[ri].Due < secs; ri++ {
			rr := in.reregs[ri]
			if _, ok := pending[rr.ID]; ok {
				res.regMissed++ // its earlier reply never came
			}
			frame = wire.AppendQuery(frame[:0], wire.Query{ID: rr.ID, Rect: rr.Rect})
			if err := r.sub.send(frame); err != nil {
				return nil, err
			}
			late = append(late, time.Since(origin).Seconds()-rr.Due)
			pending[rr.ID] = rr
			res.regSent++
		}
		if now >= end {
			break
		}
		next := end
		if ri < len(in.reregs) && in.reregs[ri].Due < secs {
			next = math.Min(next, in.reregs[ri].Due)
		}
		if err := r.sub.readUntil(origin.Add(seconds(next)), handle); err != nil {
			return nil, err
		}
	}
	probes.finish(secs)
	res.regMissed += len(pending)
	res.probes, res.missed = probes.sent(), probes.Missed
	lat := make([]float64, len(probes.Latencies))
	for i, l := range probes.Latencies {
		lat[i] = 1000 * l
	}
	res.r2r = summarize(lat)
	res.register = summarize(regLat)
	if res.ecSamples > 0 {
		res.ec = ecSum / float64(res.ecSamples)
	}
	return late, nil
}
