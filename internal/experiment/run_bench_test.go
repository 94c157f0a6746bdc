package experiment

import (
	"testing"

	"lira/internal/roadnet"
)

// BenchmarkRun times one lira cell of a measured sweep — 1500 nodes on a
// 25 km² network, 40 warmup and 100 measured ticks, 150 queries — once
// as a memo miss (the reference is simulated and recorded) and once as a
// memo hit (the recorded reference is replayed).
func BenchmarkRun(b *testing.B) {
	netCfg := roadnet.DefaultConfig()
	netCfg.Side = 5000
	netCfg.GridStep = 400
	netCfg.Centers = 2
	netCfg.CenterRadius = 1000
	env, err := NewEnv(EnvConfig{Net: netCfg, Nodes: 1500, TraceSeed: 2, CalibNodes: 400, CalibTicks: 120})
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultRunConfig()
	cfg.Policy = "lira"
	cfg.L = 100
	cfg.WarmupTicks = 40
	cfg.DurationTicks = 100
	cfg.ReAdaptEvery = 60
	cfg.QueryCount = 150
	run := func(b *testing.B, forget bool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if forget {
				env.ref = nil
			}
			if _, err := Run(env, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("miss", func(b *testing.B) { run(b, true) })
	b.Run("hit", func(b *testing.B) {
		if _, err := Run(env, cfg); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		run(b, false)
	})
}
