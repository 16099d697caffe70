// Command bench is the repository benchmark: it drives the simulator
// through its public calls on one of five fixed workloads and reports
// host-time metrics end to end, or, traced, per layer. Run it from the
// repository root through bench/run.sh, which builds it first:
//
//	bash bench/run.sh --workload accel-finegrain --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it is a fuller
// report with sample counts, the result digest and, traced, the layer
// table. See README.md for the workloads, metrics and layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"syscall"
)

// metricDef declares one reported metric. BENCHMARK.json declares the
// same names and units (a test keeps the two in step).
type metricDef struct {
	name, unit string
	// moves names the end-to-end metric and workload a per-layer metric
	// should move; empty for end-to-end metrics.
	moves string
}

var endToEnd = []metricDef{
	{name: "tasks_per_s", unit: "tasks/s"},
	{name: "ns_per_task_p50", unit: "ns"},
	{name: "ns_per_task_p75", unit: "ns"},
	{name: "allocs_per_task", unit: "allocs"},
	{name: "peak_rss_mb", unit: "MiB"},
	{name: "sim_speedup_geomean", unit: "x"},
	{name: "setup_s", unit: "s"},
}

// metric is one reported value with its unit and sample count.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

type metrics map[string]metric

// set records a declared metric under its declared unit.
func (m metrics) set(name string, v float64, samples int) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				m[name] = metric{Value: v, Unit: d.unit, Samples: samples}
				return
			}
		}
	}
	panic("bench: undeclared metric " + name)
}

// report is the fuller per-run record printed before the result line and
// collected into bench/baseline.
type report struct {
	Workload        string   `json:"workload"`
	Seed            uint64   `json:"seed"`
	Traced          bool     `json:"traced"`
	Rounds          int      `json:"rounds"`
	Attempted       int      `json:"attempted"`
	Failed          int      `json:"failed"`
	OpFailRatio     float64  `json:"op_fail_ratio"`
	ResultDigest    string   `json:"result_digest"`
	FidelityCellsOK *int     `json:"fidelity_cells_ok,omitempty"`
	Withheld        []string `json:"withheld,omitempty"`
	Host            *host    `json:"host,omitempty"`
	Metrics         metrics  `json:"metrics"`
	Layers          *layers  `json:"layers,omitempty"`
}

// host records what the timed phase measured before scaling: the raw
// throughput and the calibration kernel's median time.
type host struct {
	RawTasksPerS float64 `json:"raw_tasks_per_s"`
	CalibNs      float64 `json:"calib_ns_median"`
	RefCalibNs   float64 `json:"ref_calib_ns"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: accel-finegrain, platform-full, software-runtime, stream-window or paper-sweep")
		seed     = flag.Uint64("seed", 1, "seed for the op order of every round and the seeded pattern inputs")
		seconds  = flag.Float64("seconds", 15, "wall-clock seconds of timed rounds")
		traced   = flag.Int("trace", 0, "1 for the traced run, which reports the per-layer metrics")
		traceDir = flag.String("trace-dir", ".bench_build/trace", "directory the traced run writes spans, cpu.pprof and layers.json into")
	)
	flag.Parse()
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	w, err := lookupWorkload(*name, *seed)
	if err == nil && *traced != 0 && *traced != 1 {
		err = fmt.Errorf("-trace must be 0 or 1, got %d", *traced)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, minRounds: 40, setupReps: 3}
	var rep *report
	if *traced == 1 {
		rep, err = runTraced(w, cfg, *traceDir)
	} else {
		rep = runEndToEnd(w, cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if len(rep.Withheld) > 0 {
		fmt.Fprintf(os.Stderr, "bench: too few rounds to report %v\n", rep.Withheld)
		os.Exit(1)
	}
	if err := printReport(rep); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runEndToEnd sets up, runs the timed rounds untraced and reports the
// end-to-end metrics.
func runEndToEnd(w workload, cfg config) *report {
	r := newRunner(w, cfg)
	r.setup()
	ph := r.timed(cfg.seconds, cfg.minRounds, nil)
	rss := peakRSSMiB()
	r.checkFidelity()
	rep := r.report(ph, false)
	rep.Host = &host{
		RawTasksPerS: float64(ph.tasks) / (float64(ph.rawNs) / 1e9),
		CalibNs:      median(ph.calibNs),
		RefCalibNs:   refCalibNs,
	}
	m := rep.Metrics
	m.set("tasks_per_s", ph.tasksPerS(), ph.rounds)
	for _, p := range []struct {
		name string
		q    float64
	}{{"ns_per_task_p50", 0.50}, {"ns_per_task_p75", 0.75}} {
		if v, ok := percentile(ph.samples, p.q); ok {
			m.set(p.name, v, len(ph.samples))
		} else {
			rep.Withheld = append(rep.Withheld, p.name)
		}
	}
	if len(ph.allocs) > 0 {
		m.set("allocs_per_task", slices.Min(ph.allocs), len(ph.allocs))
	}
	m.set("peak_rss_mb", rss, 1)
	geo, n := r.speedupGeomean()
	m.set("sim_speedup_geomean", geo, n)
	m.set("setup_s", median(r.setupS), len(r.setupS))
	return rep
}

// report fills the fields every run reports.
func (r *runner) report(ph phase, traced bool) *report {
	rep := &report{
		Workload:     r.w.name,
		Seed:         r.cfg.seed,
		Traced:       traced,
		Rounds:       ph.rounds,
		Attempted:    r.attempted,
		Failed:       r.failed,
		OpFailRatio:  float64(r.failed) / float64(max(r.attempted, 1)),
		ResultDigest: r.resultDigest(),
		Metrics:      metrics{},
	}
	if r.w.fidelity {
		rep.FidelityCellsOK = &r.fidelityOK
	}
	return rep
}

func printReport(rep *report) error {
	line, err := json.Marshal(struct {
		Report *report `json:"report"`
	}{rep})
	if err != nil {
		return err
	}
	res := result{
		Correct:   rep.Failed == 0,
		Attempted: rep.Attempted,
		Failed:    rep.Failed,
		Metrics:   map[string]valueUnit{},
	}
	for name, m := range rep.Metrics {
		res.Metrics[name] = valueUnit{m.Value, m.Unit}
	}
	last, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n%s\n", line, last)
	return nil
}

// peakRSSMiB reads the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
