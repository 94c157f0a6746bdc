package netsvc

import (
	"net"
	"runtime"
	"testing"
	"time"

	"lira/internal/cqserver"
	"lira/internal/fmodel"
	"lira/internal/geo"
	"lira/internal/motion"
	"lira/internal/telemetry"
	"lira/internal/wire"
)

func coreConfig(nodes int) cqserver.Config {
	return cqserver.Config{
		Space: space(),
		Nodes: nodes,
		L:     13,
		Curve: fmodel.Hyperbolic(5, 100, 19),
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestBatchedUpdateFlow proves the capability handshake and the vectored
// path end to end: a default client against a batch-capable server must
// deliver its reports inside UpdateBatch frames (visible in the frame
// counters) and the server must apply every one of them.
func TestBatchedUpdateFlow(t *testing.T) {
	clk := &fakeClock{}
	hub := telemetry.NewHub(0)
	s, err := Listen("127.0.0.1:0", ServerConfig{
		Core:      coreConfig(64),
		Z:         1,
		EvalEvery: 10 * time.Millisecond,
		Clock:     clk.Now,
		Telemetry: hub,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := DialNode(s.Addr().String(), 1, geo.Point{X: 100, Y: 100}, 5)
	if err != nil {
		t.Fatal(err)
	}
	batches := hub.Registry.Counter("lira_frames_read_update_batch_total")
	// Every observation moves far past the 5-unit threshold, so each
	// generates a report; the flusher ships them within ~5ms. The
	// first few may go out per-update before the capability ack
	// lands — keep observing until a batch frame has been counted.
	x := 100.0
	waitFor(t, "batched updates applied", func() bool {
		x += 50
		clk.Advance(100)
		if _, err := c.Observe(geo.Point{X: x, Y: 100}, geo.Vector{}, clk.Now()); err != nil {
			t.Fatal(err)
		}
		return batches.Value() > 0 && s.Introspect().Applied > 0
	})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	s.Close()
}

// TestLegacyClientPerUpdateCompat is the old-client half of the
// compatibility matrix: a raw connection speaking the v1 protocol — a
// 12-byte Hello, then standalone Update frames — must keep working
// against the batch-capable server, and the unsolicited capability Hello
// the server now sends must be the only surprise on the read side.
func TestLegacyClientPerUpdateCompat(t *testing.T) {
	clk := &fakeClock{}
	s := startServer(t, clk.Now, 1)
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Drain server-to-client frames like a v1 client: read and ignore
	// anything unexpected (the capability Hello lands here).
	go func() {
		for {
			if _, _, err := wire.ReadFrame(conn); err != nil {
				return
			}
		}
	}()
	hello := wire.AppendHello(nil, wire.Hello{Node: 9, Pos: geo.Point{X: 500, Y: 500}})
	if len(hello) != 17 { // 5-byte header + 12-byte v1 payload
		t.Fatalf("legacy hello frame is %d bytes, want 17", len(hello))
	}
	if err := wire.WriteFrame(conn, hello); err != nil {
		t.Fatal(err)
	}
	up := wire.AppendUpdate(nil, wire.Update{Node: 9, Report: motion.Report{
		Pos: geo.Point{X: 500, Y: 500}, Vel: geo.Vector{X: 10}, Time: clk.Now(),
	}})
	if err := wire.WriteFrame(conn, up); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "legacy update applied", func() bool {
		return s.Introspect().Applied > 0
	})
}

// TestNewClientOldServerFallback is the other half: against a server that
// never advertises batching (a stub speaking only the v1 protocol), the
// client's flusher must drain every report as standalone Update frames —
// no UpdateBatch frame may ever reach the wire.
func TestNewClientOldServerFallback(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type seen struct {
		updates int
		batches int
	}
	got := make(chan seen, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var s seen
		for {
			typ, _, err := wire.ReadFrame(conn)
			if err != nil {
				got <- s
				return
			}
			switch typ {
			case wire.TypeUpdate:
				s.updates++
			case wire.TypeUpdateBatch:
				s.batches++
			}
			// A v1 server: never acknowledges capabilities, answers nothing.
		}
	}()
	c, err := DialNodeConfig(ln.Addr().String(), NodeConfig{
		ID: 3, Pos: geo.Point{X: 100, Y: 100}, FallbackDelta: 5,
		DisableReconnect: true,
		HeartbeatEvery:   -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	x := 100.0
	for i := 0; i < 20; i++ {
		x += 50
		if _, err := c.Observe(geo.Point{X: x, Y: 100}, geo.Vector{}, float64(i)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	c.Close()
	s := <-got
	if s.batches != 0 {
		t.Fatalf("client sent %d batch frames to a v1 server", s.batches)
	}
	if s.updates == 0 {
		t.Fatal("no per-update frames reached the v1 server: pending batch never drained")
	}
}

// TestBatchFlusherShutdownNoLeak pins the flusher goroutine's lifecycle:
// dialing starts it, Close reaps it. The goroutine census must return to
// its pre-dial level.
func TestBatchFlusherShutdownNoLeak(t *testing.T) {
	clk := &fakeClock{}
	s := startServer(t, clk.Now, 1)
	time.Sleep(20 * time.Millisecond) // let server goroutines settle
	base := runtime.NumGoroutine()
	c, err := DialNode(s.Addr().String(), 2, geo.Point{X: 200, Y: 200}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Observe(geo.Point{X: 260, Y: 200}, geo.Vector{}, clk.Now()); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, base)
}
