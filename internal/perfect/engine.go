package perfect

import (
	"repro/internal/sim"
	"repro/internal/trace"
)

// Engine adapts the zero-overhead roofline scheduler to the sim
// registry.
type Engine struct{}

// Name returns the registry name.
func (Engine) Name() string { return "perfect" }

// Run executes the trace on the roofline scheduler.
//
// Only Workers and WorkerClasses reach the roofline: it schedules
// greedily in one pass — always granting the best eligible class, so
// the Sched policy and Steal queues have nothing to improve — and
// there is no hardware to configure, no cycle loop for FastForward to
// select and no runaway simulation for Watchdog to bound.
//
//picos:ignores-knobs Admission,Conflict,FastForward,Faults,NewQDepth,NumDCT,NumTRS,Recovery,RunAhead,Sched,ShardHash,ShardHop,Steal,Wake,Watchdog zero-overhead roofline; the greedy best-class grant subsumes every grant policy and steal order, there is no accelerator hardware or cycle loop to fast-forward or bound, and no fault layer — the roofline is the fault-free ideal by definition
func (Engine) Run(tr *trace.Trace, spec sim.Spec) (*sim.Result, error) {
	classes, err := spec.ClassPlan()
	if err != nil {
		return nil, err
	}
	var res *Result
	if len(classes) > 0 {
		res, err = RunClasses(tr, classes)
	} else {
		res, err = Run(tr, spec.Workers)
	}
	if err != nil {
		return nil, err
	}
	first, thr := sim.Probes(res.Start)
	return &sim.Result{
		Workers:    res.Workers,
		Makespan:   res.Makespan,
		Baseline:   res.Baseline,
		Speedup:    res.Speedup,
		FirstStart: first,
		ThrTask:    thr,
		Start:      res.Start,
		Finish:     res.Finish,
	}, nil
}

// RunStream satisfies sim.Engine by materializing the source: the
// roofline's critical-path weighting is a whole-graph backward pass, so
// a bounded window cannot help it — this is one of the sanctioned
// trace.Materialize sites (see picoslint's materializewall check). The
// window knob therefore changes nothing here beyond routing; results
// are identical to Run on the materialized trace by construction.
func (e Engine) RunStream(src trace.Source, spec sim.Spec) (*sim.Result, error) {
	tr, err := trace.Materialize(src)
	if err != nil {
		return nil, err
	}
	return e.Run(tr, spec)
}

func init() { sim.Register(Engine{}) }
