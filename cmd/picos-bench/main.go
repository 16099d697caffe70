// Command picos-bench regenerates the paper's tables and figures.
// Experiments are registry entries in internal/experiments; their
// simulation matrices run through the sim engine registry on a
// parallel worker pool.
//
// Usage:
//
//	picos-bench -exp table4            # one experiment
//	picos-bench -exp all               # everything (long: full Figure 11)
//	picos-bench -exp fig8 -quick       # reduced sweep for smoke runs
//	picos-bench -exp shard-capacity -plot
//	                                   # tables plus their ASCII charts
//	                                   # and heatmaps
//	picos-bench -list                  # list experiment names
//	picos-bench -quick -json           # time every experiment with the
//	                                   # fast path on and off, emit JSON
//	                                   # (the BENCH_fastpath.json format)
//	picos-bench -compare old.json new.json
//	                                   # diff two bench JSON files, exit
//	                                   # non-zero on >10% regression
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"repro/internal/experiments"
)

// benchEntry is one line of the -json output: wall-clock ns for one
// experiment under the event-driven fast path and under the per-cycle
// reference loop, their ratio, and the heap allocations of a warm
// fast-path run, the minimum over allocRuns runs (warm engine pools
// drive this toward the workload's Result payload alone).
type benchEntry struct {
	Experiment    string  `json:"experiment"`
	Quick         bool    `json:"quick"`
	NsFast        int64   `json:"ns_fast"`
	NsCycleStep   int64   `json:"ns_cyclestep"`
	SpeedupFactor float64 `json:"speedup"`
	AllocsPerRun  uint64  `json:"allocs_per_run"`
}

func main() {
	exp := flag.String("exp", "all", "experiment to run (one of -list, or 'all')")
	quick := flag.Bool("quick", false, "reduced parameter sweeps")
	plot := flag.Bool("plot", false, "render sweep results as ASCII charts and heatmaps too")
	list := flag.Bool("list", false, "list experiment names and exit")
	cycleStep := flag.Bool("cyclestep", false, "force the per-cycle reference loop (debug; results are identical)")
	jsonOut := flag.Bool("json", false, "time each experiment fast-path on vs off and emit JSON instead of tables (-cyclestep and -plot do not apply)")
	compare := flag.String("compare", "", "old bench JSON file: compare against the new bench JSON given as the positional argument and exit non-zero on a >10% speedup regression")
	flag.Parse()

	if *compare != "" {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "picos-bench: -compare needs exactly one positional argument: picos-bench -compare old.json new.json")
			os.Exit(2)
		}
		os.Exit(compareBench(*compare, flag.Arg(0)))
	}

	if *list {
		for _, n := range experiments.Names {
			fmt.Println(n)
		}
		return
	}

	names := experiments.Names
	if *exp != "all" {
		names = []string{*exp}
	}
	if *jsonOut {
		benchJSON(names, *quick)
		return
	}
	opt := experiments.Options{Quick: *quick, CycleStepped: *cycleStep}
	for _, name := range names {
		start := time.Now()
		tables, err := experiments.Run(name, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "picos-bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		for _, t := range tables {
			if err := t.Fprint(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "picos-bench: %v\n", err)
				os.Exit(1)
			}
			if *plot {
				if err := t.Plot(os.Stdout); err != nil {
					fmt.Fprintf(os.Stderr, "picos-bench: %v\n", err)
					os.Exit(1)
				}
			}
		}
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n", name, time.Since(start).Round(time.Millisecond))
	}
}

// benchJSON times every named experiment under the fast path and under
// the cycle-stepped reference and emits the measurements as JSON.
func benchJSON(names []string, quick bool) {
	var entries []benchEntry
	for _, name := range names {
		e := measureExperiment(name, quick)
		entries = append(entries, e)
		fmt.Fprintf(os.Stderr, "[%s: fast %v, cycle-stepped %v, %.2fx, %d allocs/run]\n", name,
			time.Duration(e.NsFast).Round(time.Microsecond),
			time.Duration(e.NsCycleStep).Round(time.Microsecond),
			e.SpeedupFactor, e.AllocsPerRun)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(entries); err != nil {
		fmt.Fprintf(os.Stderr, "picos-bench: %v\n", err)
		os.Exit(1)
	}
}

// measureExperiment compares the fast path against the cycle-stepped
// reference with an interleaved best-of-N protocol: one untimed
// warm-up pair first (trace generators, engine pools and the allocator
// reach steady state — the old fast-first, best-of-2 protocol
// systematically favored whichever side ran with a warmer process),
// then alternating fast/reference trials, keeping each side's minimum.
// Trial count adapts to the experiment: at least minTrials pairs,
// continuing until the time budget is spent, so microsecond-scale
// experiments (Table III's resource model, the nanos-only figures) get
// enough samples for a stable ratio instead of reporting scheduler
// noise.
func measureExperiment(name string, quick bool) benchEntry {
	fastOpt := experiments.Options{Quick: quick}
	refOpt := experiments.Options{Quick: quick, CycleStepped: true}
	runOnce := func(opt experiments.Options) int64 {
		start := time.Now()
		if _, err := experiments.Run(name, opt); err != nil {
			fmt.Fprintf(os.Stderr, "picos-bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		return time.Since(start).Nanoseconds()
	}
	sensitive := experiments.FastPathSensitive(name)
	runOnce(fastOpt)
	if sensitive {
		runOnce(refOpt)
	}

	// Allocations of a warm fast-path run (sweep goroutines included:
	// Mallocs is process-wide and nothing else is running). One run's
	// delta also carries whatever pool refills and collections fall
	// inside it, which swing it by tens of percent; the minimum over
	// allocRuns runs is the run that paid the fewest of them.
	allocs := uint64(math.MaxUint64)
	for range allocRuns {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		runOnce(fastOpt)
		runtime.ReadMemStats(&after)
		allocs = min(allocs, after.Mallocs-before.Mallocs)
	}

	if !sensitive {
		// Nothing in this experiment branches on the fast-path knob:
		// measure its wall clock once and report the tautological 1.0
		// instead of timing the identical computation against itself.
		best := int64(0)
		var spent int64
		for trial := 0; trial < 11; trial++ {
			ns := runOnce(fastOpt)
			if trial == 0 || ns < best {
				best = ns
			}
			spent += ns
			if trial >= 2 && spent >= time.Second.Nanoseconds() {
				break
			}
		}
		return benchEntry{Experiment: name, Quick: quick, NsFast: best, NsCycleStep: best,
			SpeedupFactor: 1.0, AllocsPerRun: allocs}
	}

	// An odd cap keeps the alternation balanced; small experiments run
	// all trials (microseconds each), big ones stop at the time budget.
	const (
		minTrials = 3
		maxTrials = 41
	)
	budget := (2 * time.Second).Nanoseconds()
	var fastBest, refBest, spent int64
	for trial := 0; trial < maxTrials; trial++ {
		// Alternate which side runs first within a pair: allocator and GC
		// state systematically favor whichever side follows the other, and
		// min-of-N does not cancel a bias that always points the same way.
		var f, r int64
		if trial%2 == 0 {
			f = runOnce(fastOpt)
			r = runOnce(refOpt)
		} else {
			r = runOnce(refOpt)
			f = runOnce(fastOpt)
		}
		if trial == 0 || f < fastBest {
			fastBest = f
		}
		if trial == 0 || r < refBest {
			refBest = r
		}
		spent += f + r
		if trial+1 >= minTrials && spent >= budget {
			break
		}
	}
	e := benchEntry{Experiment: name, Quick: quick, NsFast: fastBest, NsCycleStep: refBest, AllocsPerRun: allocs}
	if fastBest > 0 {
		e.SpeedupFactor = float64(refBest) / float64(fastBest)
	}
	return e
}

// allocRuns is the number of warm fast-path runs whose minimum heap
// allocation count a bench entry reports.
const allocRuns = 9

// minSignificantNs is the reference-loop wall time below which a bench
// row is reported but not gated: the ratio of two microsecond-scale
// measurements is scheduler noise, not a scheduler regression.
const minSignificantNs = 1_000_000

// compareBench diffs two bench JSON files and returns the process exit
// code: 1 when any experiment significant in both files lost more than
// 10% of its fast-vs-cycle-stepped speedup, 0 otherwise.
func compareBench(oldPath, newPath string) int {
	oldEntries, err := readBench(oldPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "picos-bench: %v\n", err)
		return 2
	}
	newEntries, err := readBench(newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "picos-bench: %v\n", err)
		return 2
	}
	oldByName := map[string]benchEntry{}
	for _, e := range oldEntries {
		oldByName[e.Experiment] = e
	}
	fmt.Printf("%-14s %10s %10s %8s %14s %6s\n", "experiment", "old", "new", "delta", "allocs/run", "gated")
	regressions := 0
	seen := map[string]bool{}
	for _, ne := range newEntries {
		seen[ne.Experiment] = true
		oe, ok := oldByName[ne.Experiment]
		if !ok {
			fmt.Printf("%-14s %10s %10.2fx %8s %14d %6s\n", ne.Experiment, "-", ne.SpeedupFactor, "new", ne.AllocsPerRun, "no")
			continue
		}
		delta := 0.0
		if oe.SpeedupFactor > 0 {
			delta = ne.SpeedupFactor/oe.SpeedupFactor - 1
		}
		significant := oe.NsCycleStep >= minSignificantNs && ne.NsCycleStep >= minSignificantNs
		gated := "no"
		if significant {
			gated = "yes"
		}
		status := ""
		if significant && ne.SpeedupFactor < oe.SpeedupFactor*0.9 {
			regressions++
			status = "  << REGRESSION"
		}
		fmt.Printf("%-14s %9.2fx %9.2fx %+7.1f%% %6d->%-7d %6s%s\n",
			ne.Experiment, oe.SpeedupFactor, ne.SpeedupFactor, delta*100,
			oe.AllocsPerRun, ne.AllocsPerRun, gated, status)
	}
	missing := 0
	for _, oe := range oldEntries {
		if !seen[oe.Experiment] {
			// Lost coverage fails the gate like a regression would: a
			// baseline experiment that no longer produces a row is a
			// measurement that silently stopped happening.
			missing++
			fmt.Printf("%-14s %9.2fx %10s\n", oe.Experiment, oe.SpeedupFactor, "missing")
		}
	}
	if regressions > 0 || missing > 0 {
		fmt.Fprintf(os.Stderr, "picos-bench: %d experiment(s) regressed by more than 10%%, %d missing from the new results\n", regressions, missing)
		return 1
	}
	fmt.Println("no significant speedup regressions")
	return 0
}

func readBench(path string) ([]benchEntry, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var entries []benchEntry
	if err := json.Unmarshal(b, &entries); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("%s: no bench entries", path)
	}
	return entries, nil
}
