// Command bench is the repository's benchmark: one command that runs a
// named workload against the real code, prints every end-to-end metric
// with its unit, and checks the outputs.
//
// Usage (from the repository root):
//
//	bash bench/run.sh --workload serve-steady --seed 1 --seconds 20 --trace 0
//
// Workloads: serve-steady and serve-flash drive an in-process netsvc
// server over loopback (a gateway connection for the fleet's reports, a
// subscriber connection for queries and results); measured-sweep runs
// experiment.Measure over every registered policy. --trace 1 replays the
// workload's input in-process through each layer's public functions,
// recording a span per call, and reports the per-layer metrics instead.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// A failed output check prints the reason to standard error and exits 1.
// See bench/README.md for the workloads, metrics, and layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line plus the human-readable detail
// printed above it.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	detail []string // name=value lines printed before the JSON
	checks []string // failed output checks
}

func (r *report) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// note records one detail line (a metric outside the JSON set, or
// provenance).
func (r *report) note(name string, v any, unit string) {
	r.detail = append(r.detail, fmt.Sprintf("%-28s %v %s", name, v, unit))
}

// check records a failed output check unless ok holds.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.checks = append(r.checks, fmt.Sprintf(format, args...))
	}
}

var workloads = []string{"serve-steady", "serve-flash", "measured-sweep"}

func main() {
	workload := flag.String("workload", "", "workload name: "+strings.Join(workloads, ", "))
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	secs := flag.Float64("seconds", 20, "measured seconds per run")
	traced := flag.Int("trace", 0, "1: traced per-layer replay instead of the end-to-end run")
	flag.Parse()

	rep := &report{Metrics: map[string]metric{}}
	provenance(rep, *workload, *seed, *traced)
	var err error
	switch {
	case *traced == 1:
		err = runTraced(rep, *workload, *seed, *secs)
	case *workload == "serve-steady":
		err = serveEndToEnd(rep, steadyConfig, *seed, *secs)
	case *workload == "serve-flash":
		err = serveEndToEnd(rep, flashConfig, *seed, *secs)
	case *workload == "measured-sweep":
		err = sweepEndToEnd(rep, *seed, *secs)
	default:
		err = fmt.Errorf("unknown workload %q (want one of %s)", *workload, strings.Join(workloads, ", "))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if *traced == 0 {
		rep.set("peak_rss_mb", peakRSSMB(), "MB")
	} else {
		rep.note("peak_rss_mb", fmt.Sprintf("%.1f", peakRSSMB()), "MB")
	}
	for _, line := range rep.detail {
		fmt.Println(line)
	}
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rep.Metrics[name]
		fmt.Printf("%-28s %.6g %s\n", name, m.Value, m.Unit)
	}
	rep.Correct = len(rep.checks) == 0
	for _, c := range rep.checks {
		fmt.Fprintln(os.Stderr, "bench: output check failed:", c)
	}
	if !rep.Correct {
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// provenance records the host and inputs every result depends on.
func provenance(rep *report, workload string, seed uint64, traced int) {
	rep.note("workload", workload, "")
	rep.note("seed", seed, "")
	rep.note("trace", traced, "")
	rep.note("num_cpu", runtime.NumCPU(), "")
	rep.note("gomaxprocs", runtime.GOMAXPROCS(0), "")
	rep.note("go_version", runtime.Version(), "")
	rep.note("commit", commit(), "")
}

// commit names the checked-out commit from .git in the working
// directory, or "unknown" in a source checkout without one.
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return short(ref)
	}
	if id, err := os.ReadFile(".git/" + ref); err == nil {
		return short(strings.TrimSpace(string(id)))
	}
	packed, _ := os.ReadFile(".git/packed-refs")
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return short(id)
		}
	}
	return "unknown"
}

func short(id string) string { return id[:min(12, len(id))] }

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
