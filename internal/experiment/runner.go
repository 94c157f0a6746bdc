package experiment

import (
	"runtime"
	"sync"
	"sync/atomic"

	"lira/internal/trace"
)

// Fork returns an Env that shares the immutable environment pieces — the
// road network and the calibrated f(Δ) curve — but owns a private trace
// source and an empty reference memo. Trajectories are a pure function of
// (network, trace config), so the fork replays exactly the trajectories
// of the original; forks of one Env can therefore run simulations
// concurrently with bit-identical results.
func (e *Env) Fork() *Env {
	f := *e
	f.Src = trace.NewSource(e.Net, e.Src.Config())
	f.ref = nil
	return &f
}

// workersFor resolves a Sweep.Parallel-style knob to a worker count for n
// independent runs: values ≤ 0 select GOMAXPROCS, and the result never
// exceeds n.
func workersFor(parallel, n int) int {
	w := parallel
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// runGrid executes every configuration against env and returns the results
// in input order. With more than one worker, runs execute concurrently on
// Env forks; each Run owns all of its mutable state (servers, nodes,
// collectors) and draws run-local randomness from its RunConfig seed, so
// results are byte-identical to the serial order regardless of scheduling.
//
// On error, the error of the lowest-indexed failing configuration is
// returned, matching what serial execution would have reported first.
func runGrid(env *Env, parallel int, cfgs []RunConfig) ([]*Result, error) {
	out := make([]*Result, len(cfgs))
	workers := workersFor(parallel, len(cfgs))
	if workers <= 1 {
		for i, cfg := range cfgs {
			res, err := Run(env, cfg)
			if err != nil {
				return nil, err
			}
			out[i] = res
		}
		return out, nil
	}
	errs := make([]error, len(cfgs))
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			fork := env.Fork()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cfgs) || failed.Load() {
					return
				}
				res, err := Run(fork, cfgs[i])
				if err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
				out[i] = res
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// runGridContainment is runGrid specialized to the figures that only need
// the mean containment error, averaged over repeat groups: cfgs is laid
// out as groups of `repeats` consecutive differently-seeded runs and the
// returned slice holds one group average per group, in group order. The
// averaging order matches runAvgContainment exactly.
func runGridContainment(env *Env, parallel int, cfgs []RunConfig, repeats int) ([]float64, error) {
	if repeats < 1 {
		repeats = 1
	}
	results, err := runGrid(env, parallel, cfgs)
	if err != nil {
		return nil, err
	}
	out := make([]float64, 0, len(results)/repeats)
	for g := 0; g+repeats <= len(results); g += repeats {
		total := 0.0
		for r := 0; r < repeats; r++ {
			total += results[g+r].Metrics.MeanContainment
		}
		out = append(out, total/float64(repeats))
	}
	return out, nil
}

// repeatSeeds expands cfg into max(1, repeats) configurations whose seeds
// are staggered exactly as runAvgContainment staggers them.
func repeatSeeds(cfg RunConfig, repeats int) []RunConfig {
	if repeats < 1 {
		repeats = 1
	}
	cfg.fillDefaults()
	out := make([]RunConfig, repeats)
	for r := range out {
		c := cfg
		c.Seed = cfg.Seed + uint64(r)*1009
		out[r] = c
	}
	return out
}
