package main

import (
	"math"
	"testing"
)

// tinyConfig shrinks a serving workload to a second-long smoke run.
func tinyConfig(cfg serveConfig) serveConfig {
	cfg.nodes = 400
	cfg.side = 2000
	cfg.queries = 16
	cfg.querySide = 300
	cfg.sampled = 4
	if cfg.reregs > 0 {
		cfg.reregs, cfg.reregRate = 2, 6
	}
	cfg.probes, cfg.probeRate, cfg.probeLimit = 8, 20, 0.5
	cfg.queueSize = 4096
	cfg.adaptEvery = 0.5
	cfg.baseRate = 40
	cfg.tickWall = 0.1
	return cfg
}

func TestServingWorkloadsPassTheirChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a loopback server for about a second per workload")
	}
	for _, cfg := range []serveConfig{steadyConfig, flashConfig} {
		t.Run(cfg.name, func(t *testing.T) {
			rep := &report{Metrics: map[string]metric{}}
			if err := serveEndToEnd(rep, tinyConfig(cfg), 7, 0.8); err != nil {
				t.Fatal(err)
			}
			for _, c := range rep.checks {
				t.Error(c)
			}
			for _, name := range []string{"setup_s", "latency_p50_ms", "latency_p90_ms", "goodput_per_s", "result_ec"} {
				if v := rep.Metrics[name].Value; !(v > 0) {
					t.Errorf("%s = %v, want > 0", name, v)
				}
			}
		})
	}
}

func TestTracedReplayAccountsForItsTime(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a loopback server before replaying it")
	}
	rep := &report{Metrics: map[string]metric{}}
	if _, err := replayServe(rep, tinyConfig(steadyConfig), 7, 0.8); err != nil {
		t.Fatal(err)
	}
	fillLayerMetrics(rep)
	if cover := rep.Metrics["replay.self_cover_frac"].Value; math.Abs(cover-1) > 1e-3 {
		t.Errorf("layer self times cover %v of the replay, want 1", cover)
	}
	for _, name := range []string{"wire.decode_ns_per_rec", "engine.evaluate_calls", "netsvc.result_frames", "controlplane.adapts", "self_ms.statgrid"} {
		if v := rep.Metrics[name].Value; !(v > 0) {
			t.Errorf("%s = %v, want > 0", name, v)
		}
	}
	if len(rep.Metrics) != len(perLayerMetrics) {
		t.Errorf("%d per-layer metrics reported, want %d", len(rep.Metrics), len(perLayerMetrics))
	}
}
