package experiment

import (
	"strings"
	"testing"

	"lira/internal/roadnet"
	"lira/internal/workload"
)

// tinyEnv and tinySweep make the figure smoke tests fast: the point here
// is plumbing, not fidelity (fidelity is cmd/lirabench's job).
func tinyEnv(t *testing.T) *Env {
	t.Helper()
	netCfg := roadnet.DefaultConfig()
	netCfg.Side = 4000
	netCfg.GridStep = 400
	netCfg.Centers = 2
	netCfg.CenterRadius = 900
	env, err := NewEnv(EnvConfig{
		Net:        netCfg,
		Nodes:      500,
		CalibNodes: 200,
		CalibTicks: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func tinySweep() Sweep {
	base := DefaultRunConfig()
	base.L = 22
	base.WarmupTicks = 40
	base.DurationTicks = 150
	base.EvalEvery = 30
	sw := QuickSweep(base)
	sw.Zs = []float64{0.75, 0.4}
	sw.Ls = []int{13, 49}
	sw.Fairness = []float64{10, 95}
	sw.FairnessZs = []float64{0.5}
	sw.Ws = []float64{500, 1500}
	sw.CostLs = []int{13, 49}
	sw.CostAlphas = []int{32}
	sw.Radii = []float64{800, 1600}
	return sw
}

func TestFigure1(t *testing.T) {
	env := tinyEnv(t)
	f := Figure1(env)
	if len(f.Rows) < 5 {
		t.Fatalf("fig1 rows = %d", len(f.Rows))
	}
	if f.Rows[0][1] != 1 {
		t.Errorf("f(Δ⊢) = %v, want 1", f.Rows[0][1])
	}
	last := f.Rows[len(f.Rows)-1]
	if last[1] >= f.Rows[0][1] {
		t.Error("f must decrease toward Δ⊣")
	}
}

func TestFigure3(t *testing.T) {
	env := tinyEnv(t)
	cfg := DefaultRunConfig()
	cfg.L = 22
	cfg.WarmupTicks = 40
	f, p, err := Figure3(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p == nil || len(p.Regions) == 0 {
		t.Fatal("no partitioning")
	}
	total := 0.0
	for _, row := range f.Rows {
		total += row[1]
	}
	if int(total) != len(p.Regions) {
		t.Errorf("histogram sums to %v, regions %d", total, len(p.Regions))
	}
	if len(f.Rows) < 2 {
		t.Error("expected a non-uniform size distribution (≥2 distinct sizes)")
	}
}

func TestFigures4and5Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweep")
	}
	env := tinyEnv(t)
	sw := tinySweep()
	f4, f5, err := Figures4and5(env, sw)
	if err != nil {
		t.Fatal(err)
	}
	if len(f4.Rows) != len(sw.Zs) || len(f5.Rows) != len(sw.Zs) {
		t.Fatalf("row counts: %d/%d", len(f4.Rows), len(f5.Rows))
	}
	for _, row := range f4.Rows {
		if len(row) != len(f4.Columns) {
			t.Fatalf("ragged row: %v", row)
		}
		// Random Drop must be the worst strategy on position error.
		if !(row[1] > row[4]) {
			t.Errorf("z=%v: random drop E^P %v not above lira %v", row[0], row[1], row[4])
		}
	}
}

func TestFigure14AndTable3(t *testing.T) {
	env := tinyEnv(t)
	sw := tinySweep()
	f14, err := Figure14(env, sw)
	if err != nil {
		t.Fatal(err)
	}
	if len(f14.Rows) != len(sw.CostLs) {
		t.Fatalf("fig14 rows = %d", len(f14.Rows))
	}
	for _, row := range f14.Rows {
		for _, ms := range row[1:] {
			if ms < 0 {
				t.Errorf("negative cost %v", ms)
			}
			if ms > 5000 {
				t.Errorf("configuration cost %v ms is implausibly slow", ms)
			}
		}
	}
	t3, err := Table3(env, sw)
	if err != nil {
		t.Fatal(err)
	}
	if len(t3.Rows) != len(sw.Radii) {
		t.Fatalf("table3 rows = %d", len(t3.Rows))
	}
	// Regions per station must grow with radius.
	prev := 0.0
	for _, row := range t3.Rows {
		if row[1] < prev {
			t.Errorf("regions per station fell from %v to %v as radius grew", prev, row[1])
		}
		prev = row[1]
		if row[2] != row[1]*16 {
			t.Errorf("bytes %v != regions %v × 16", row[2], row[1])
		}
	}
}

func TestRenderOutput(t *testing.T) {
	env := tinyEnv(t)
	f := Figure1(env)
	var b strings.Builder
	f.Render(&b)
	out := b.String()
	if !strings.Contains(out, "fig1") || !strings.Contains(out, "delta_m") {
		t.Errorf("render output missing header: %q", out)
	}
	if !strings.Contains(out, "note:") {
		t.Error("render output missing notes")
	}
}

// TestAllFigureSweepsSmoke exercises every remaining figure entry point
// at minimum scale; trend assertions live in the dedicated tests and the
// benchmark suite — this guards the plumbing.
func TestAllFigureSweepsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweeps")
	}
	env := tinyEnv(t)
	sw := tinySweep()
	sw.Repeats = 1

	f6, err := Figure6or7(env, sw, workload.Inverse)
	if err != nil || f6.ID != "fig6" || len(f6.Rows) != len(sw.Zs) {
		t.Fatalf("fig6: %v", err)
	}
	f7, err := Figure6or7(env, sw, workload.Random)
	if err != nil || f7.ID != "fig7" {
		t.Fatalf("fig7: %v", err)
	}
	f8, err := Figure8(env, sw)
	if err != nil || len(f8.Rows) != len(sw.Ls) {
		t.Fatalf("fig8: %v", err)
	}
	f9, err := Figure9(env, sw)
	if err != nil || len(f9.Rows) != len(sw.Ls) {
		t.Fatalf("fig9: %v", err)
	}
	f10, err := Figure10(env, sw)
	if err != nil || len(f10.Rows) != len(sw.Fairness) {
		t.Fatalf("fig10: %v", err)
	}
	// Uniform Δ ignores Δ⇔: its columns must be constant.
	for _, row := range f10.Rows {
		if row[2] != f10.Rows[0][2] || row[4] != f10.Rows[0][4] {
			t.Errorf("uniform fairness columns vary: %v", row)
		}
	}
	f11, err := Figure11(env, sw)
	if err != nil || len(f11.Rows) != len(sw.Fairness) {
		t.Fatalf("fig11: %v", err)
	}
	f12, err := Figure12(env, sw)
	if err != nil || len(f12.Rows) != len(sw.Ls) {
		t.Fatalf("fig12: %v", err)
	}
	f13, err := Figure13(env, sw)
	if err != nil || len(f13.Rows) != len(sw.Ws) {
		t.Fatalf("fig13: %v", err)
	}
	// Figure 13's trend (E^C falls as w grows) is asserted at the scale
	// cmd/lirabench runs; at this tiny scale allow generous noise.
	first, last := f13.Rows[0], f13.Rows[len(f13.Rows)-1]
	if last[2] > first[2]*2 {
		t.Errorf("E^C should not grow materially with w: %v -> %v", first[2], last[2])
	}
	if DefaultSweep().Repeats < 1 {
		t.Error("default sweep must average relative comparisons")
	}
}

func TestRunAvgContainmentAverages(t *testing.T) {
	env := tinyEnv(t)
	cfg := tinySweep().Base
	cfg.DurationTicks = 120
	a, err := runAvgContainment(env, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runAvgContainment(env, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a < 0 || b < 0 {
		t.Errorf("negative errors: %v %v", a, b)
	}
	// repeats<1 behaves as 1
	c, err := runAvgContainment(env, cfg, 0)
	if err != nil || c != a {
		t.Errorf("repeats=0 should equal repeats=1: %v vs %v (%v)", c, a, err)
	}
}
