package admission

import (
	"sync"
	"testing"

	"lira/internal/telemetry"
)

// calm is a signal vector demanding no rung at all.
var calm = Signals{}

// overload demands the critical rung under the default thresholds.
var overload = Signals{QueueFrac: 0.99}

// fastCfg is a ladder that escalates after 1 demanding tick and recovers
// after 2 calm ones — small counts keep the walks in tests readable.
func fastCfg() Config {
	return Config{EscalateAfter: 1, RecoverAfter: 2}
}

func TestNewValidatesZLadder(t *testing.T) {
	if _, err := New(Config{ZWarn: 0.3, ZShed: 0.5, ZFloor: 0.1}); err == nil {
		t.Fatalf("New accepted a non-monotone z ladder (shed above warn)")
	}
	if _, err := New(Config{ZWarn: 0.8, ZShed: 0.5, ZFloor: 0.6}); err == nil {
		t.Fatalf("New accepted a non-monotone z ladder (floor above shed)")
	}
	c, err := New(Config{})
	if err != nil {
		t.Fatalf("New(zero config): %v", err)
	}
	if got := c.State(); got != Healthy {
		t.Fatalf("fresh controller state = %v, want healthy", got)
	}
}

// TestEscalationOneRungPerTick walks the ladder under sustained critical
// demand: movement is one rung per tick at most, gated by EscalateAfter.
func TestEscalationOneRungPerTick(t *testing.T) {
	c, err := New(Config{EscalateAfter: 2, RecoverAfter: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := []State{
		Healthy, Warning, // ticks 1-2: second demanding tick steps up
		Warning, Shed,
		Shed, Critical,
		Critical, Critical, // saturated: no rung above critical
	}
	for i, w := range want {
		if got := c.Observe(overload); got != w {
			t.Fatalf("tick %d: state = %v, want %v", i+1, got, w)
		}
	}
	if got := c.Transitions(); got != 3 {
		t.Fatalf("transitions = %d, want 3", got)
	}
}

// TestRecoveryIsDamped checks the step-down path: RecoverAfter calm
// ticks per rung, one rung at a time, monotone all the way home.
func TestRecoveryIsDamped(t *testing.T) {
	c, err := New(Config{EscalateAfter: 1, RecoverAfter: 3})
	if err != nil {
		t.Fatal(err)
	}
	for c.State() != Critical {
		c.Observe(overload)
	}
	states := []State{}
	for i := 0; i < 9; i++ {
		states = append(states, c.Observe(calm))
	}
	want := []State{Critical, Critical, Shed, Shed, Shed, Warning, Warning, Warning, Healthy}
	for i, w := range want {
		if states[i] != w {
			t.Fatalf("calm tick %d: state = %v, want %v (walk %v)", i+1, states[i], w, states)
		}
	}
}

// TestHysteresisBand pins the sticky exit: a signal below the warning
// enter threshold but above enter×ExitRatio neither escalates nor
// recovers — the ladder holds its rung instead of flapping.
func TestHysteresisBand(t *testing.T) {
	c, err := New(Config{EscalateAfter: 1, RecoverAfter: 1, ExitRatio: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	c.Observe(Signals{QueueFrac: 0.60}) // ≥ 0.50: demands warning
	if got := c.State(); got != Warning {
		t.Fatalf("state after demand = %v, want warning", got)
	}
	// 0.45 < 0.50 (no entry demand) but ≥ 0.40 = 0.50×0.8 (not calm).
	for i := 0; i < 50; i++ {
		if got := c.Observe(Signals{QueueFrac: 0.45}); got != Warning {
			t.Fatalf("in-band tick %d: state = %v, want warning held", i+1, got)
		}
	}
	// An in-band tick must also break a recovery streak: calm, in-band,
	// calm may not step down a RecoverAfter=2 ladder on that last tick.
	c2, _ := New(Config{EscalateAfter: 1, RecoverAfter: 2, ExitRatio: 0.8})
	c2.Observe(Signals{QueueFrac: 0.60})
	c2.Observe(calm)                     // down = 1
	c2.Observe(Signals{QueueFrac: 0.45}) // in-band: resets the streak
	if got := c2.Observe(calm); got != Warning {
		t.Fatalf("recovery streak survived an in-band tick: state = %v, want warning", got)
	}
	if got := c2.Observe(calm); got != Healthy {
		t.Fatalf("two consecutive calm ticks: state = %v, want healthy", got)
	}
}

func TestClampZPerRung(t *testing.T) {
	c, err := New(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if got := c.ClampZ(0.9); got != 0.9 {
		t.Fatalf("healthy clamp(0.9) = %v, want pass-through", got)
	}
	c.Observe(Signals{QueueFrac: 0.60}) // → warning
	if got := c.ClampZ(0.9); got != 0.75 {
		t.Fatalf("warning clamp(0.9) = %v, want 0.75", got)
	}
	if got := c.ClampZ(0.5); got != 0.5 {
		t.Fatalf("warning clamp(0.5) = %v, want pass-through below cap", got)
	}
	c.Observe(Signals{QueueFrac: 0.85}) // → shed
	if got := c.ClampZ(0.9); got != 0.40 {
		t.Fatalf("shed clamp(0.9) = %v, want 0.40", got)
	}
	c.Observe(overload) // → critical
	if got := c.ClampZ(0.9); got != 0.05 {
		t.Fatalf("critical clamp(0.9) = %v, want the 0.05 floor", got)
	}
	if got := c.ClampZ(0.01); got != 0.05 {
		t.Fatalf("critical clamp(0.01) = %v, want the floor to force 0.05", got)
	}
}

// TestAdmitNHealthyFastPath: below the shed rung every record is
// admitted and nothing is counted.
func TestAdmitNHealthyFastPath(t *testing.T) {
	c, err := New(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 7, 1000} {
		if got := c.AdmitN(n); got != n {
			t.Fatalf("healthy AdmitN(%d) = %d, want all admitted", n, got)
		}
	}
	if got := c.PreShed(); got != 0 {
		t.Fatalf("healthy PreShed = %d, want 0", got)
	}
}

// TestAdmitNTracksFractionExactly: at the shed rung with admit fraction
// 0.5, the cumulative admitted count equals ⌊offered/2⌋ regardless of
// how arrivals are batched, and the result sequence is deterministic.
func TestAdmitNTracksFractionExactly(t *testing.T) {
	mk := func() *Controller {
		c, err := New(fastCfg())
		if err != nil {
			t.Fatal(err)
		}
		c.Observe(Signals{QueueFrac: 0.85}) // warning
		c.Observe(Signals{QueueFrac: 0.85}) // shed (ShedAdmit 0.5)
		return c
	}
	batches := []int{1, 1, 3, 64, 7, 128, 1, 5, 2, 33}
	c1, c2 := mk(), mk()
	offered, admitted := 0, 0
	for i, n := range batches {
		a1, a2 := c1.AdmitN(n), c2.AdmitN(n)
		if a1 != a2 {
			t.Fatalf("batch %d: AdmitN nondeterministic: %d vs %d", i, a1, a2)
		}
		if a1 < 0 || a1 > n {
			t.Fatalf("batch %d: AdmitN(%d) = %d out of range", i, n, a1)
		}
		offered += n
		admitted += a1
		if want := offered / 2; admitted != want {
			t.Fatalf("after batch %d: admitted %d of %d, want exactly %d", i, admitted, offered, want)
		}
	}
	if got := c1.PreShed(); got != int64(offered-admitted) {
		t.Fatalf("PreShed = %d, want %d", got, offered-admitted)
	}
}

// TestAdmitNConcurrentConservation: concurrent producers never lose or
// double-count records — offered-admitted accounting stays conserved and
// every per-call result is within [0, n].
func TestAdmitNConcurrentConservation(t *testing.T) {
	c, err := New(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	c.Observe(Signals{QueueFrac: 0.85})
	c.Observe(Signals{QueueFrac: 0.85}) // shed: 0.5 admitted
	const producers, per = 8, 1000
	var wg sync.WaitGroup
	admitted := make([]int, producers)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				got := c.AdmitN(3)
				if got < 0 || got > 3 {
					panic("AdmitN out of range")
				}
				admitted[p] += got
			}
		}(p)
	}
	wg.Wait()
	total := 0
	for _, a := range admitted {
		total += a
	}
	offered := producers * per * 3
	if want := offered / 2; total != want {
		t.Fatalf("concurrent admitted = %d of %d, want exactly %d", total, offered, want)
	}
	if got := c.PreShed(); got != int64(offered-total) {
		t.Fatalf("PreShed = %d, want %d", got, offered-total)
	}
}

// fakeActions records the engine-action sequence the ladder fires.
type fakeActions struct {
	mu    sync.Mutex
	calls []string
}

func (f *fakeActions) SetDegradedEval(on bool) { f.record("degraded", on) }
func (f *fakeActions) record(what string, on bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if on {
		f.calls = append(f.calls, what+"=on")
	} else {
		f.calls = append(f.calls, what+"=off")
	}
}
func (f *fakeActions) seq() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.calls...)
}

// TestActionsFireAtBoundaries: degraded eval toggles at the critical
// boundary — once each way, not on every tick.
func TestActionsFireAtBoundaries(t *testing.T) {
	fa := &fakeActions{}
	cfg := fastCfg()
	cfg.Actions = fa
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		c.Observe(overload) // → warning → shed → critical, then hold
	}
	for c.State() != Healthy {
		c.Observe(calm)
	}
	want := []string{"degraded=on", "degraded=off"}
	got := fa.seq()
	if len(got) != len(want) {
		t.Fatalf("action sequence %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("action sequence %v, want %v", got, want)
		}
	}
}

// TestJournalAndView: every Observe journals one admission record on the
// hub clock; transitions carry From; the View mirrors the ladder.
func TestJournalAndView(t *testing.T) {
	hub := telemetry.NewHub(64)
	tick := 0.0
	hub.SetClock(func() float64 { return tick })
	cfg := fastCfg()
	cfg.Telemetry = hub
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tick = 1
	c.Observe(overload) // healthy → warning
	tick = 2
	c.Observe(calm)

	recs := hub.Journal.Tail(0)
	if len(recs) != 2 {
		t.Fatalf("journal has %d records, want 2", len(recs))
	}
	first := recs[0]
	if first.Kind != telemetry.KindAdmission || first.Admission == nil {
		t.Fatalf("first record = %+v, want an admission record", first)
	}
	if first.Tick != 1 {
		t.Fatalf("first record tick = %v, want model time 1", first.Tick)
	}
	if first.Admission.From != "healthy" || first.Admission.State != "warning" {
		t.Fatalf("transition record = %+v, want healthy→warning", first.Admission)
	}
	if first.Admission.Demanded != "critical" {
		t.Fatalf("demanded = %q, want critical (queue 0.99)", first.Admission.Demanded)
	}
	if second := recs[1]; second.Admission.From != "" {
		t.Fatalf("steady-state record carries From = %q, want empty", second.Admission.From)
	}

	v := c.View()
	if v.State != "warning" || v.StateCode != int(Warning) {
		t.Fatalf("view state = %q/%d, want warning/%d", v.State, v.StateCode, int(Warning))
	}
	if v.ZCap != 0.75 {
		t.Fatalf("view z cap = %v, want 0.75", v.ZCap)
	}
	if v.Transitions != 1 {
		t.Fatalf("view transitions = %d, want 1", v.Transitions)
	}
	if v.Signals != calm {
		t.Fatalf("view signals = %+v, want the last observed vector", v.Signals)
	}
}

// TestDisabledThresholds: non-positive and +Inf thresholds never demand.
func TestDisabledThresholds(t *testing.T) {
	cfg := fastCfg()
	cfg.Thresholds = Thresholds{QueueFrac: [3]float64{0.5, 0.8, 0.95}}
	// Goroutines/EvalP99/GCPause all zero ⇒ disabled.
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if got := c.Observe(Signals{Goroutines: 1e9, EvalP99: 1e9, GCPause: 1e9}); got != Healthy {
			t.Fatalf("disabled signals escalated to %v", got)
		}
	}
}
