// Command picos-sim runs one workload through one execution engine and
// reports makespan, speedup and accelerator statistics. Engines and
// workloads are resolved through the sim registry; -json emits the
// machine-readable result.
//
// Usage:
//
//	picos-sim -app cholesky -block 128 -workers 12
//	picos-sim -app heat -block 64 -engine nanos -workers 8
//	picos-sim -case 4 -engine picos-full -dm p8way
//	picos-sim -trace trace.bin -engine perfect -workers 24
//	picos-sim -app sparselu -block 64 -engine picos-full -json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/sim"
	"repro/internal/trace"

	_ "repro/internal/engines"
)

func main() {
	var (
		app      = flag.String("app", "", "benchmark: heat, lu, mlu, sparselu, cholesky, h264dec")
		problem  = flag.Int("problem", 0, "problem size (matrix dim; frames for h264dec; 0: paper default)")
		block    = flag.Int("block", 128, "block size")
		caseNo   = flag.Int("case", 0, "synthetic case 1..7 (instead of -app)")
		workload = flag.String("workload", "", "any workload-registry name, incl. pattern:<family>?width=..&steps=.. (instead of -app/-case)")
		traceIn  = flag.String("trace", "", "read a serialized trace instead of generating one")
		engine   = flag.String("engine", "picos-hw", "engine: "+strings.Join(sim.Engines(), ", "))
		dm       = flag.String("dm", "", "DM design: 8way, 16way, p8way (default p8way)")
		policy   = flag.String("ts", "", "task scheduler policy: fifo (default), lifo")
		workers  = flag.Int("workers", sim.DefaultWorkers, "worker count")
		classes  = flag.String("classes", "", "heterogeneous worker classes, e.g. 4xfast+4xslow:2.0+1xaccel:0.25@stencil_2d (instead of -workers)")
		schedPol = flag.String("sched", "", "ready-task grant policy: fifo (default), lifo, priority, locality")
		steal    = flag.Bool("steal", false, "per-class ready queues with deterministic work stealing")
		nTRS     = flag.Int("trs", 0, "TRS instances (default 1)")
		nDCT     = flag.Int("dct", 0, "DCT instances (default 1)")
		shop     = flag.Int("shardhop", 0, "per-shard-crossed fabric latency in cycles (0: default 1, negative: free)")
		admiss   = flag.String("admission", "", "GW admission policy: credits (default), slots, avoid-deadlock, avoid-deadlock-park")
		newq     = flag.Int("newq", 0, "bound the accelerator's new-task submission buffer (0: unbounded)")
		runAhead = flag.Int("runahead", 0, "Full-system creation run-ahead window (0: default 16, negative: unbounded)")
		window   = flag.Int("window", 0, "stream the workload under this bounded descriptor window (created-but-unretired tasks; 0: materialized whole-trace run)")
		watchdog = flag.Uint64("watchdog", 0, "abort the run after this many simulated cycles (0: engine default)")
		faultsFl = flag.String("faults", "", "deterministic fault plan, e.g. axi:drop=0.01@seed7+worker:failstop=2@cycle50000")
		recovery = flag.String("recovery", "", "recovery policies, e.g. retry=3:backoff200+regrant+degrade=100000")
		ff       = flag.Bool("ff", true, "event-driven fast path (results identical; disable to debug with per-cycle stepping)")
		verify   = flag.Bool("verify", true, "check the schedule against the dependence oracle")
		showStat = flag.Bool("stats", false, "print accelerator statistics")
		jsonOut  = flag.Bool("json", false, "emit the result as JSON on stdout")
		schedule = flag.Bool("schedule", false, "include the per-task schedule in the JSON output")
	)
	flag.Parse()

	spec := sim.Spec{
		Engine:        *engine,
		Workload:      workloadName(*traceIn, *app, *caseNo, *workload),
		Problem:       *problem,
		Block:         *block,
		Workers:       *workers,
		WorkerClasses: *classes,
		Sched:         *schedPol,
		Steal:         *steal,
		Design:        *dm,
		Policy:        *policy,
		Admission:     *admiss,
		NumTRS:        *nTRS,
		NumDCT:        *nDCT,
		ShardHop:      *shop,
		NewQDepth:     *newq,
		RunAhead:      *runAhead,
		Window:        *window,
		Watchdog:      *watchdog,
		Faults:        *faultsFl,
		Recovery:      *recovery,
	}
	if !*ff {
		spec.FastForward = sim.Bool(false)
	}
	if *classes != "" {
		// The class list fixes the worker count; only an explicit
		// -workers flag is a genuine conflict worth the typed error.
		workersSet := false
		flag.Visit(func(f *flag.Flag) { workersSet = workersSet || f.Name == "workers" })
		if !workersSet {
			spec.Workers = 0
		}
	}
	if spec.Workload == "" {
		fail(fmt.Errorf("one of -app, -case, -workload or -trace is required"))
	}

	var (
		tr  *trace.Trace
		res *sim.Result
		err error
	)
	if *window > 0 {
		// Streaming: the workload is built as a lazy Source and never
		// materialized — a pattern grid of millions of tasks replays in
		// O(window) memory. No whole trace exists afterwards, so the
		// workload summary and the dependence-oracle verification (both
		// of which need one) are unavailable on this path.
		src, berr := sim.BuildWorkloadSource(spec)
		if berr != nil {
			fail(berr)
		}
		res, err = sim.RunSource(src, spec)
	} else {
		if tr, err = sim.BuildWorkload(spec); err != nil {
			fail(err)
		}
		res, err = sim.RunTrace(tr, spec)
	}
	if err != nil {
		fail(err)
	}
	// Wedged, timed-out, faulted, refusal-bearing or streamed runs have
	// only a partial (or perturbed, or aggregate-only) schedule, which
	// the complete-run dependence oracle cannot judge.
	partial := res.Wedged || res.TimedOut || res.Faulted || res.RefusedTasks > 0 || tr == nil
	verified := false
	verifySkipped := *verify && partial
	if *verify && !partial {
		if err := sim.Verify(tr, res); err != nil {
			fail(fmt.Errorf("schedule verification FAILED: %w", err))
		}
		verified = true
	}

	if *jsonOut {
		if !*schedule {
			res.StripSchedule()
		}
		out := struct {
			Spec     sim.Spec    `json:"spec"`
			Result   *sim.Result `json:"result"`
			Verified bool        `json:"verified"`
			// VerifySkipped distinguishes "-verify was on but the run
			// wedged before a full schedule existed" from "-verify off".
			VerifySkipped bool `json:"verify_skipped,omitempty"`
		}{spec, res, verified, verifySkipped}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fail(err)
		}
		exitOutcome(res)
		return
	}

	if tr != nil {
		s := tr.Summarize()
		fmt.Printf("workload %s: %d tasks, %d-%d deps/task, avg size %.3g cycles, baseline %.3g cycles\n",
			tr.Name, s.NumTasks, s.MinDeps, s.MaxDeps, s.AvgTaskSize, float64(tr.Baseline()))
	} else {
		fmt.Printf("workload %s: streamed under a %d-descriptor window, baseline %.3g cycles\n",
			res.Workload, *window, float64(res.Baseline))
	}
	fmt.Printf("engine %s, %d workers\n", res.Engine, res.Workers)
	switch {
	case res.Wedged:
		kind := "proven deadlock"
		if res.Faulted {
			kind = "fault-induced deadlock"
		}
		if tr != nil {
			done := 0
			for _, f := range res.Finish {
				if f > 0 {
					done++
				}
			}
			fmt.Printf("WEDGED at cycle %d: %s, %d/%d tasks completed\n",
				res.WedgedAt, kind, done, tr.Summarize().NumTasks)
		} else {
			fmt.Printf("WEDGED at cycle %d: %s\n", res.WedgedAt, kind)
		}
	case res.TimedOut:
		fmt.Printf("TIMED OUT: no progress for the watchdog window (livelock or starvation), makespan so far %d cycles\n",
			res.Makespan)
	default:
		fmt.Printf("makespan %d cycles, speedup %.2fx, L1st %d, thrTask %.0f cycles\n",
			res.Makespan, res.Speedup, res.FirstStart, res.ThrTask)
	}
	if res.Faulted || res.LostTasks > 0 || res.RecoveredTasks > 0 || res.RefusedTasks > 0 {
		fmt.Printf("faults: fired %v, lost %d, recovered %d, refused %d\n",
			res.Faulted, res.LostTasks, res.RecoveredTasks, res.RefusedTasks)
	}
	if res.LockBusy > 0 {
		fmt.Printf("runtime lock busy %d cycles\n", res.LockBusy)
	}
	if *showStat && res.Stats != nil {
		st := res.Stats
		fmt.Printf("stats: admitted %d, deps %d, DM conflicts %d, conflict stall %d cy, "+
			"VM stalls %d, GW blocked %d cy, wakes %d, max in-flight %d, max VM %d\n",
			st.TasksAdmitted, st.DepsProcessed, st.DMConflicts, st.DMConflictStallCycles,
			st.VMStallEvents, st.GWBlockedCycles, st.WakesRouted, st.MaxInFlightTasks, st.MaxVMLive)
	}
	if verified {
		fmt.Println("schedule verified against the dependence oracle")
	}
	if verifySkipped {
		if tr == nil {
			fmt.Println("verification skipped: a streamed run keeps no schedule to verify")
		} else {
			fmt.Println("verification skipped: partial or fault-perturbed schedule")
		}
	}
	exitOutcome(res)
}

// Structured-outcome exit codes, distinct from 1 (errors) so scripted
// sweeps can tell "this design wedges/starves here" from "the tool
// failed": 3 is a proven model deadlock, 4 a watchdog expiry (livelock
// or no-progress stall). A faulted-but-completed run still exits 0 —
// the outcome fields in the JSON carry the loss accounting.
const (
	exitWedged   = 3
	exitTimedOut = 4
)

// exitOutcome terminates with the structured exit code of a
// non-completing run, or returns for the normal exit 0.
func exitOutcome(res *sim.Result) {
	switch {
	case res.Wedged:
		os.Exit(exitWedged)
	case res.TimedOut:
		os.Exit(exitTimedOut)
	}
}

// workloadName maps the trace-source flags onto one registry name.
func workloadName(tracePath, app string, caseNo int, workload string) string {
	switch {
	case tracePath != "":
		return sim.TracePrefix + tracePath
	case caseNo != 0:
		return fmt.Sprintf("case%d", caseNo)
	case workload != "":
		return workload
	default:
		return app
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "picos-sim: %v\n", err)
	os.Exit(1)
}
