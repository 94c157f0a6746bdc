package netsvc

import (
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"lira/internal/basestation"
	"lira/internal/cqserver"
	"lira/internal/faultnet"
	"lira/internal/fmodel"
	"lira/internal/geo"
	"lira/internal/metrics"
	"lira/internal/motion"
	"lira/internal/rng"
	"lira/internal/telemetry"
	"lira/internal/wire"
)

// waitGoroutines polls until the goroutine count returns to at most want,
// failing with a full stack dump on timeout. Leak detection needs the
// retry loop: conn goroutines take a few scheduler rounds to unwind.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			m := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d live, want ≤ %d\n%s", n, want, buf[:m])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestChaosReconnectAndReconverge is the acceptance harness: a real
// server plus a node fleet and a query subscriber, all over a faultnet
// fabric injecting 20% frame loss (plus duplication, corruption, delay,
// and resets), with two forced partitions mid-run. Invariants: every
// client reconnects and reconverges to the live assignment, the query
// stream resumes, degradation is visible in the counters, and no
// goroutines leak after Server.Close. Three distinct seeds run under
// -race; the schedule-determinism half of the acceptance criterion (same
// seed → identical fault schedule) is proven at the faultnet layer by
// TestSameSeedSameSchedule, where frame sequences are controlled.
func TestChaosReconnectAndReconverge(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			chaosRun(t, seed)
		})
	}
}

func chaosRun(t *testing.T, seed uint64) {
	baseline := runtime.NumGoroutine()
	const nodes = 5

	fabric := faultnet.New(seed, faultnet.Config{
		Drop:     0.20,
		Dup:      0.05,
		Corrupt:  0.03,
		Delay:    0.05,
		Reset:    0.02,
		MaxDelay: 2 * time.Millisecond,
		Record:   true,
	})
	counters := &metrics.NetCounters{}
	clk := &fakeClock{}
	hub := telemetry.NewHub(0)

	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s, err := Serve(fabric.WrapListener(raw, "srv"), ServerConfig{
		Core: cqserver.Config{
			Space: space(),
			Nodes: 64,
			L:     13,
			Curve: fmodel.Hyperbolic(5, 100, 19),
		},
		Stations: []basestation.Station{
			{ID: 0, Center: geo.Point{X: 500, Y: 1000}, Radius: 900},
			{ID: 1, Center: geo.Point{X: 1500, Y: 1000}, Radius: 900},
		},
		Z:           0.5,
		EvalEvery:   20 * time.Millisecond,
		ReadTimeout: 400 * time.Millisecond,
		Counters:    counters,
		Clock:       clk.Now,
		Telemetry:   hub,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr := s.Addr().String()

	clientCfg := func(i int) NodeConfig {
		label := fmt.Sprintf("node-%d", i)
		return NodeConfig{
			ID:             uint32(i),
			Pos:            geo.Point{X: 200 + 300*float64(i), Y: 1000},
			FallbackDelta:  5,
			Dialer:         func(a string) (net.Conn, error) { return fabric.Dial(a, label) },
			HeartbeatEvery: 30 * time.Millisecond,
			ReadTimeout:    200 * time.Millisecond,
			WriteTimeout:   500 * time.Millisecond,
			BackoffBase:    10 * time.Millisecond,
			BackoffMax:     80 * time.Millisecond,
			Seed:           seed*1000 + uint64(i),
			Counters:       counters,
		}
	}
	clients := make([]*NodeClient, nodes)
	for i := range clients {
		c, err := DialNodeConfig(addr, clientCfg(i))
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
	}
	q, err := DialQueryConfig(addr, QueryConfig{
		Buffer:         8,
		Dialer:         func(a string) (net.Conn, error) { return fabric.Dial(a, "query") },
		HeartbeatEvery: 30 * time.Millisecond,
		ReadTimeout:    200 * time.Millisecond,
		WriteTimeout:   500 * time.Millisecond,
		BackoffBase:    10 * time.Millisecond,
		BackoffMax:     80 * time.Millisecond,
		Seed:           seed * 7777,
		Counters:       counters,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Register(geo.NewRect(0, 0, 2000, 2000)); err != nil {
		t.Fatal(err)
	}

	// Drive motion through two forced partitions. Zero reported velocity
	// with 20 m hops exceeds every throttler, so every step generates a
	// report — maximal pressure on the faulty links.
	wander := rng.New(seed)
	for step := 0; step < 90; step++ {
		clk.Advance(500)
		for i, c := range clients {
			x := 200 + 300*float64(i) + wander.Range(-50, 50)
			if _, err := c.Observe(geo.Point{X: x, Y: 1000}, geo.Vector{}, clk.Now()); err != nil {
				t.Fatalf("step %d node %d: %v", step, i, err)
			}
		}
		if step == 30 || step == 60 {
			fabric.Partition()
			time.Sleep(100 * time.Millisecond)
			fabric.Heal()
		}
		time.Sleep(3 * time.Millisecond)
	}

	// Reconvergence: after healing, every client must re-announce itself
	// and hold the live assignment again (Station ≥ 0 only happens when
	// an assignment frame survived the faulty link post-reconnect).
	deadline := time.Now().Add(10 * time.Second)
	for _, c := range clients {
		for c.Station() < 0 {
			if time.Now().After(deadline) {
				s.mu.Lock()
				_, hasConn := s.nodeConns[c.cfg.ID]
				st, hasSt := s.nodeStation[c.cfg.ID]
				s.mu.Unlock()
				t.Fatalf("node %d never reconverged to an assignment (reconnects=%d, err=%v, srvConn=%v, srvStation=%d/%v, adaptErr=%v)",
					c.cfg.ID, c.Reconnects(), c.Err(), hasConn, st, hasSt, s.Adapt())
			}
			// Adapt rebroadcasts the live assignment; on a 20%-loss link
			// several deliveries may be needed.
			s.Adapt()
			time.Sleep(20 * time.Millisecond)
		}
	}

	// The query stream must resume: drain anything stale, then require a
	// fresh push.
drainStale:
	for {
		select {
		case <-q.Results():
		default:
			break drainStale
		}
	}
	select {
	case _, ok := <-q.Results():
		if !ok {
			t.Fatalf("query client gave up: %v", q.Err())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no query result after healing")
	}

	// Both partitions severed every live link, so the fleet as a whole
	// must have reconnected at least once per client, and the fabric must
	// have actually injected loss.
	if got := counters.Reconnects.Load(); got < nodes {
		t.Errorf("Reconnects = %d, want ≥ %d", got, nodes)
	}
	if counters.Disconnects.Load() == 0 {
		t.Error("no disconnects recorded through two partitions")
	}
	if st := fabric.Stats(); st.Dropped == 0 || st.Frames == 0 {
		t.Errorf("fault injection inert: %+v", st)
	}

	// Each forced partition severed every live link, so the decision
	// journal must hold at least one server-side disconnect record per
	// partition, with monotone non-decreasing ticks (journal time is the
	// server clock, never the wall clock).
	disconnects := 0
	prevTick := -1.0
	for _, rec := range hub.Journal.Tail(hub.Journal.Len()) {
		if rec.Tick < prevTick {
			t.Errorf("journal tick went backwards: %v -> %v (seq %d)", prevTick, rec.Tick, rec.Seq)
		}
		prevTick = rec.Tick
		if rec.Kind == telemetry.KindNet && rec.Net != nil && rec.Net.Event == "disconnect" {
			disconnects++
		}
	}
	if disconnects < 2 {
		t.Errorf("journal disconnect records = %d, want ≥ 2 (one per forced partition)", disconnects)
	}
	// Every adaptation (startup plus the reconvergence rebroadcasts)
	// journals a GRIDREDUCE and a GREEDYINCREMENT record.
	if hub.Journal.CountKind(telemetry.KindRepartition) == 0 {
		t.Error("no GRIDREDUCE repartition records in the journal")
	}
	if hub.Journal.CountKind(telemetry.KindAssign) == 0 {
		t.Error("no GREEDYINCREMENT assignment records in the journal")
	}

	if in := s.Introspect(); in.QueueCap == 0 {
		t.Errorf("introspection engine view wrong: cap=%d", in.QueueCap)
	}

	for _, c := range clients {
		c.Close()
	}
	q.Close()
	if err := s.Close(); err != nil {
		t.Errorf("server close: %v", err)
	}
	// Record conservation at quiescence: Close drained the rings, so
	// every offered update must have exactly one fate. A recovered panic
	// mid-ingest may leak an in-flight record (counted offered, never
	// landed), so the zero-balance assertion only binds on panic-free
	// runs — which these are, unless something else broke first.
	if led := s.Ledger(); s.Counters().Panics.Load() == 0 && led.Balance != 0 {
		t.Errorf("conservation ledger unbalanced at quiescence: %+v", led)
	}
	// No goroutine leaks: everything the harness spawned must unwind.
	waitGoroutines(t, baseline+2)
}

// TestLossDegradesGracefully checks the degradation invariant: as
// injected frame loss rises, the server simply knows less (fewer applied
// updates → staler beliefs → larger result inaccuracy) — it never
// crashes, and the degradation is monotone. Reconnection and heartbeats
// are disabled so the only fault in play is loss itself.
func TestLossDegradesGracefully(t *testing.T) {
	const steps, nodes = 60, 4
	applied := make([]int64, 0, 3)
	for _, loss := range []float64{0, 0.5, 0.9} {
		fabric := faultnet.New(42, faultnet.Config{Drop: loss})
		clk := &fakeClock{}
		s := startServer(t, clk.Now, 1)
		addr := s.Addr().String()
		clients := make([]*NodeClient, nodes)
		for i := range clients {
			label := fmt.Sprintf("node-%d", i)
			c, err := DialNodeConfig(addr, NodeConfig{
				ID:               uint32(i),
				Pos:              geo.Point{X: 100 + 100*float64(i), Y: 100},
				FallbackDelta:    5,
				Dialer:           func(a string) (net.Conn, error) { return fabric.Dial(a, label) },
				HeartbeatEvery:   -1,
				ReadTimeout:      -1,
				DisableReconnect: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			clients[i] = c
		}
		for step := 0; step < steps; step++ {
			clk.Advance(1000)
			for i, c := range clients {
				// 20 m hops at zero reported velocity: every step reports.
				p := geo.Point{X: 100 + 100*float64(i) + 20*float64(step%2), Y: 100}
				if _, err := c.Observe(p, geo.Vector{}, clk.Now()); err != nil {
					t.Fatalf("loss=%v step %d: %v", loss, step, err)
				}
			}
		}
		// Let the background loop drain what arrived, then snapshot.
		var got int64
		for stable := 0; stable < 5; {
			time.Sleep(30 * time.Millisecond)
			s.mu.Lock()
			v := s.eng.Applied()
			qlen := s.eng.QueueLen()
			s.mu.Unlock()
			if v == got && qlen == 0 {
				stable++
			} else {
				stable = 0
				got = v
			}
		}
		applied = append(applied, got)
		for _, c := range clients {
			c.Close()
		}
		s.Close()
	}
	t.Logf("applied updates at loss 0/0.5/0.9: %v", applied)
	if !(applied[0] > applied[1] && applied[1] > applied[2]) {
		t.Errorf("applied updates not monotone in loss: %v", applied)
	}
	if applied[2] == 0 {
		t.Error("even at 90%% loss some updates must survive")
	}
}

// TestClientErrSurfacesLinkFailure covers the Err contract: a link
// failure is recorded, visible through Err, and returned by Close —
// distinguishable from a clean shutdown (which returns nil).
func TestClientErrSurfacesLinkFailure(t *testing.T) {
	clk := &fakeClock{}
	s := startServer(t, clk.Now, 1)
	addr := s.Addr().String()

	node, err := DialNodeConfig(addr, NodeConfig{
		ID: 1, Pos: geo.Point{X: 100, Y: 100}, FallbackDelta: 5,
		DisableReconnect: true, HeartbeatEvery: -1, ReadTimeout: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	query, err := DialQueryConfig(addr, QueryConfig{
		DisableReconnect: true, HeartbeatEvery: -1, ReadTimeout: -1,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Clean shutdown first, on a separate healthy pair: Close returns nil.
	clean, err := DialNode(addr, 9, geo.Point{X: 1, Y: 1}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := clean.Close(); err != nil {
		t.Errorf("clean Close = %v, want nil", err)
	}

	// Now kill the server: both clients' links fail.
	s.Close()
	deadline := time.Now().Add(3 * time.Second)
	for node.Err() == nil || query.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatalf("link failure never surfaced: node=%v query=%v", node.Err(), query.Err())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := node.Close(); err == nil {
		t.Error("node Close after link failure = nil, want the link error")
	}
	if err := query.Close(); err == nil {
		t.Error("query Close after link failure = nil, want the link error")
	}
	// The results channel must close when the client gives up.
	for range query.Results() {
	}
}

// TestReconnectRestoresAssignment exercises a single full
// partition→backoff→re-Hello→re-install cycle without other faults.
func TestReconnectRestoresAssignment(t *testing.T) {
	fabric := faultnet.New(7, faultnet.Config{})
	clk := &fakeClock{}
	s := startServer(t, clk.Now, 0.5)
	c, err := DialNodeConfig(s.Addr().String(), NodeConfig{
		ID: 3, Pos: geo.Point{X: 500, Y: 500}, FallbackDelta: 5,
		Dialer:         func(a string) (net.Conn, error) { return fabric.Dial(a, "n3") },
		HeartbeatEvery: 20 * time.Millisecond,
		ReadTimeout:    150 * time.Millisecond,
		BackoffBase:    5 * time.Millisecond,
		BackoffMax:     40 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitStation := func(msg string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for c.Station() < 0 {
			if time.Now().After(deadline) {
				t.Fatalf("%s (reconnects=%d err=%v)", msg, c.Reconnects(), c.Err())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitStation("initial assignment never arrived")

	fabric.Partition()
	// The degraded node must fall back to Δ⊢ (Station −1) once it
	// notices the dead link.
	deadline := time.Now().Add(5 * time.Second)
	for c.Station() >= 0 {
		if time.Now().After(deadline) {
			t.Fatal("client never degraded after partition")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if c.Err() == nil {
		t.Error("degraded client reports nil Err")
	}
	fabric.Heal()
	waitStation("assignment never re-installed after heal")
	if c.Reconnects() == 0 {
		t.Error("no reconnect recorded")
	}
	if c.Err() != nil {
		t.Errorf("healthy reconnected client reports Err = %v", c.Err())
	}
	// The server must rebase the node after resync: the next Observe is
	// a fresh full report, so the motion table knows the node again.
	if _, err := c.Observe(geo.Point{X: 510, Y: 500}, geo.Vector{}, clk.Now()); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		_, ok := s.eng.Table().Report(3)
		s.mu.Unlock()
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never relearned the node after resync")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestQueueOverflowShedsOldestFirst covers the server's overflow path: a
// saturated input queue sheds oldest-first, bumps the overflow counter,
// counts exactly one arrival per frame (the λ single-count contract), and
// the drained survivors are exactly the freshest reports.
func TestQueueOverflowShedsOldestFirst(t *testing.T) {
	clk := &fakeClock{}
	s, err := Listen("127.0.0.1:0", ServerConfig{
		Core: cqserver.Config{
			Space:     space(),
			Nodes:     16,
			L:         13,
			QueueSize: 8,
			Curve:     fmodel.Hyperbolic(5, 100, 19),
		},
		Z:         1,
		EvalEvery: time.Hour, // keep the background loop out of the way
		Clock:     clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for i := 0; i < 12; i++ {
		s.ingest(nil, wire.Update{
			Node:   uint32(i),
			Report: motion.Report{Pos: geo.Point{X: float64(10 * i), Y: 5}, Time: float64(i)},
		})
	}
	if got := s.Counters().ShedFrames.Load(); got != 4 {
		t.Errorf("ShedFrames = %d, want 4", got)
	}
	s.mu.Lock()
	if got := s.eng.Arrived(); got != 12 {
		t.Errorf("engine arrivals = %d, want 12 (one per ingested frame, sheds included)", got)
	}
	if got := s.eng.Dropped(); got != 4 {
		t.Errorf("queue drop accounting = %d, want 4 (overflow must feed the overload signal)", got)
	}
	s.eng.Drain(-1)
	for i := 0; i < 12; i++ {
		_, ok := s.eng.Table().Report(i)
		if want := i >= 4; ok != want {
			t.Errorf("node %d in table = %v, want %v (oldest-first shedding)", i, ok, want)
		}
	}
	s.mu.Unlock()
}

// TestDrainPerTickBound covers the bounded-drain path: with DrainPerTick
// set, a saturated queue empties across multiple background ticks while
// the loop stays responsive, and every admitted update is eventually
// applied.
func TestDrainPerTickBound(t *testing.T) {
	clk := &fakeClock{}
	s, err := Listen("127.0.0.1:0", ServerConfig{
		Core: cqserver.Config{
			Space:     space(),
			Nodes:     64,
			L:         13,
			QueueSize: 64,
			Curve:     fmodel.Hyperbolic(5, 100, 19),
		},
		Z:            1,
		EvalEvery:    10 * time.Millisecond,
		DrainPerTick: 3,
		Clock:        clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const n = 30
	for i := 0; i < n; i++ {
		s.ingest(nil, wire.Update{
			Node:   uint32(i),
			Report: motion.Report{Pos: geo.Point{X: float64(i), Y: 1}, Time: float64(i)},
		})
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		applied := s.eng.Applied()
		qlen := s.eng.QueueLen()
		s.mu.Unlock()
		if applied == n && qlen == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("bounded drain stalled: applied=%d queued=%d", applied, qlen)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if s.Counters().ShedFrames.Load() != 0 {
		t.Error("no overflow expected below capacity")
	}
}

// TestWallClockMonotone pins the satellite fix: WallClock is computed
// from a fixed origin plus the monotonic clock, so successive readings
// never decrease and stay on the Unix timebase.
func TestWallClockMonotone(t *testing.T) {
	prev := WallClock()
	if prev < 1e9 {
		t.Errorf("WallClock origin %v not on the Unix timebase", prev)
	}
	for i := 0; i < 1000; i++ {
		now := WallClock()
		if now < prev {
			t.Fatalf("WallClock went backwards: %v -> %v", prev, now)
		}
		prev = now
	}
}
