package main

import (
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"lira/internal/geo"
	"lira/internal/netsvc"
)

// TestDaemonGracefulShutdownNoLeaks is the goroutine-census leak gate
// for the daemon lifecycle: boot a full lirad (admission ladder,
// introspection HTTP server) on ephemeral ports, drive it with a
// live node client, exercise /metrics and /debug/lira, shut down, and
// require the goroutine census to return to baseline — no stranded
// per-connection readers, no orphaned background loops, no HTTP serve
// goroutine left behind.
func TestDaemonGracefulShutdownNoLeaks(t *testing.T) {
	baseline := runtime.NumGoroutine()

	d, err := start(options{
		listen:    "127.0.0.1:0",
		nodes:     64,
		l:         13,
		z:         0.5,
		side:      2000,
		fairness:  50,
		queue:     128,
		adapt:     50 * time.Millisecond,
		eval:      20 * time.Millisecond,
		admission: true,
		httpAddr:  "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	shut := false
	defer func() {
		if !shut {
			d.shutdown()
		}
	}()

	// A live node connection: the daemon spawns per-connection reader
	// goroutines that shutdown must drain.
	c, err := netsvc.DialNodeConfig(d.srv.Addr().String(), netsvc.NodeConfig{
		ID:            1,
		Pos:           geo.Point{X: 500, Y: 500},
		FallbackDelta: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	now := 0.0
	for i := 0; i < 20; i++ {
		now++
		c.Observe(geo.Point{X: 500 + 20*float64(i%2), Y: 500}, geo.Vector{}, now)
	}

	// The introspection endpoints must expose the ladder.
	get := func(path string) string {
		resp, err := http.Get("http://" + d.httpAddr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("GET %s: status=%d err=%v", path, resp.StatusCode, err)
		}
		return string(body)
	}
	if m := get("/metrics"); !strings.Contains(m, "lira_admission_state") {
		t.Errorf("/metrics missing lira_admission_state:\n%.400s", m)
	}
	var debug struct {
		State struct {
			Admission *struct {
				State string `json:"state"`
			} `json:"admission"`
		} `json:"state"`
	}
	if err := json.Unmarshal([]byte(get("/debug/lira")), &debug); err != nil {
		t.Fatalf("/debug/lira not JSON: %v", err)
	}
	if debug.State.Admission == nil || debug.State.Admission.State == "" {
		t.Error("/debug/lira state missing the admission ladder view")
	}

	c.Close()
	if err := d.shutdown(); err != nil {
		t.Errorf("shutdown: %v", err)
	}
	shut = true
	if d.httpAddr() != "" {
		t.Error("httpAddr non-empty after shutdown")
	}

	// Goroutine census back to baseline (bounded wait: readers unwind
	// asynchronously after Close returns).
	waitGoroutines(t, baseline+2)
}

// TestDaemonStartErrorsDoNotLeak: a start that fails late (introspection
// port collision) must tear down everything it already built.
func TestDaemonStartErrorsDoNotLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	first, err := start(options{
		listen: "127.0.0.1:0", nodes: 16, l: 13, z: 0.5, side: 2000,
		fairness: 50, adapt: time.Second, eval: time.Second,
		httpAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = start(options{
		listen: "127.0.0.1:0", nodes: 16, l: 13, z: 0.5, side: 2000,
		fairness: 50, adapt: time.Second, eval: time.Second,
		httpAddr: first.httpAddr(), // already bound → late failure
	})
	if err == nil {
		t.Fatal("second start on a bound introspection port should fail")
	}
	if err := first.shutdown(); err != nil {
		t.Errorf("shutdown: %v", err)
	}
	waitGoroutines(t, baseline+2)
}

func waitGoroutines(t *testing.T, limit int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= limit {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked: %d > %d\n%s",
		runtime.NumGoroutine(), limit, buf[:n])
}
