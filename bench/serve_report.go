package main

import "fmt"

// serveEndToEnd runs one serving workload untraced and reports its
// end-to-end metrics and output checks.
func serveEndToEnd(rep *report, cfg serveConfig, seed uint64, secs float64) error {
	res, err := runServe(cfg, seed, secs, false)
	if err != nil {
		return err
	}
	missFrac := 0.0
	if res.probes > 0 {
		missFrac = float64(res.missed) / float64(res.probes)
	}
	rep.set("setup_s", median(res.setup), "s")
	rep.set("latency_p50_ms", res.r2r.P50, "ms")
	rep.set("latency_p90_ms", res.r2r.P90, "ms")
	rep.set("goodput_per_s", res.goodput, "1/s")
	rep.set("result_ec", res.ec, "ratio")

	rep.note("r2r_p50_ms", fmt.Sprintf("%.3f", res.r2r.P50), "ms")
	rep.note("r2r_p90_ms", fmt.Sprintf("%.3f", res.r2r.P90), "ms")
	rep.note("r2r_p99_ms", fmt.Sprintf("%.3f (p%.1f of %d)", res.r2r.Tail, 100*res.r2r.TailP, res.r2r.N), "ms")
	rep.note("probe_miss_frac", fmt.Sprintf("%.5f (%d of %d)", missFrac, res.missed, res.probes), "ratio")
	if cfg.reregs > 0 {
		rep.note("register_p50_ms", fmt.Sprintf("%.3f", res.register.P50), "ms")
		rep.note("register_p99_ms", fmt.Sprintf("%.3f (p%.1f of %d)", res.register.Tail, 100*res.register.TailP, res.register.N), "ms")
	}
	rep.note("goodput_rps", fmt.Sprintf("%.1f", res.goodput), "records/s")
	rep.note("update_loss_frac", fmt.Sprintf("%.5f", res.loss), "ratio")
	rep.note("result_ec", fmt.Sprintf("%.5f (%d results)", res.ec, res.ecSamples), "ratio")
	rep.note("result_frames", res.frames, "")
	rep.note("assignment_bytes", res.assignBytes, "B")
	rep.note("admission_transitions", res.transitions, "")
	rep.note("gen.late_p50_ms", fmt.Sprintf("%.3f", res.gen.late.P50), "ms")
	rep.note("gen.late_p99_ms", fmt.Sprintf("%.3f", res.gen.late.Tail), "ms")
	rep.note("gen.busy_frac", fmt.Sprintf("%.4f", res.gen.busy), "ratio")
	rep.note("gen.sent_rps", fmt.Sprintf("%.1f", res.gen.sentRPS), "records/s")
	rep.note("gen.behind", res.gen.behind, "")
	rep.note("setup_each_s", fmt.Sprint(res.setup), "s")

	l := res.ledger
	rep.Attempted = res.probes + res.regSent
	rep.Failed = res.regMissed
	rep.check(l.Offered == l.Invalid+l.Preshed+l.Applied+l.Ringshed+l.Queued && l.Balance == 0,
		"conservation ledger unbalanced at quiescence: %+v", l)
	rep.check(res.panics == 0, "%d recovered connection panics", res.panics)
	rep.check(res.regMissed == 0, "%d re-registrations never answered with their new membership", res.regMissed)
	rep.check(res.probes > 0 && res.ecSamples > 0, "no probes or scored results (%d, %d)", res.probes, res.ecSamples)
	if !cfg.flash {
		rep.check(res.loss == 0, "update_loss_frac %.6f on %s, want exactly 0", res.loss, cfg.name)
		rep.check(res.missed == 0, "%d probes missed on %s, want 0", res.missed, cfg.name)
	}
	return nil
}
