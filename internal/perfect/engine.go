package perfect

import (
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Engine adapts the zero-overhead roofline scheduler to the sim
// registry.
type Engine struct{}

// Name returns the registry name.
func (Engine) Name() string { return "perfect" }

// Run executes the source on the roofline scheduler. The roofline's
// critical-path weighting is a backward pass over the finished graph,
// so a bounded window cannot help it: Run materializes the source (one
// of the sanctioned trace.Materialize sites, see picoslint's
// materializewall check) and records the schedule at any window.
//
// Only Workers and WorkerClasses reach the roofline: it schedules
// greedily in one pass — always granting the best eligible class, so
// the Sched policy and Steal queues have nothing to improve — and
// there is no hardware to configure, no cycle loop for FastForward to
// select and no runaway simulation for Watchdog to bound.
//
//picos:ignores-knobs Admission,FastForward,Faults,NewQDepth,NumDCT,NumTRS,Recovery,RunAhead,Sched,ShardHop,Steal,Watchdog zero-overhead roofline; the greedy best-class grant subsumes every grant policy and steal order, there is no accelerator hardware or cycle loop to fast-forward or bound, and no fault layer — the roofline is the fault-free ideal by definition
func (Engine) Run(src trace.Source, spec sim.Spec) (*sim.Result, error) {
	tr, err := trace.Materialize(src)
	if err != nil {
		return nil, err
	}
	classes, err := spec.ClassPlan()
	if err != nil {
		return nil, err
	}
	if len(classes) == 0 {
		classes = sched.Single(spec.Workers)
	}
	return Run(tr, classes)
}

func init() { sim.Register(Engine{}) }
