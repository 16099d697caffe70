// Package sim is the one public surface for running simulations: every
// execution engine the paper compares (the Picos accelerator in its
// three HIL integration modes, the software-only Nanos++ runtime and the
// Perfect roofline scheduler) registers itself here under a string name,
// every workload (the six real benchmarks, the seven synthetic capacity
// cases and serialized trace files) is resolved through a registry, and
// one declarative Spec captures every knob a run can turn. On top of the
// single-run API sits Sweep, which expands a Grid of specs and executes
// it across a bounded pool of goroutines with deterministic output
// ordering — the {engine x workload x mode x worker-count} matrices of
// Tables I-IV and Figures 6-11 become one call.
//
// Every run enters through RunSource, the one dispatcher: Run builds the
// workload first, RunTrace wraps a built trace as a Source, and each
// engine implements a single Run over a trace.Source. Engines live with
// the models they wrap and register in their package init; import
// repro/internal/engines (blank import) to get all of the built-ins:
//
//	import _ "repro/internal/engines"
//
//	res, err := sim.Run(sim.Spec{Engine: "picos-full", Workload: "cholesky", Block: 128})
//	fmt.Printf("speedup %.2fx\n", res.Speedup)
package sim

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/taskgraph"
	"repro/internal/trace"
)

// Engine is one execution model: it schedules a task stream's graph
// under a Spec and reports a shared Result. Implementations register
// themselves with Register (typically from package init) and must be
// safe for concurrent Run calls — Sweep invokes them from many
// goroutines.
type Engine interface {
	// Name is the registry key, e.g. "picos-hw" or "nanos".
	Name() string
	// Run executes the source under a spec that RunSource has defaulted
	// and checked. At Spec.Window == 0 the source is materialized (see
	// trace.AlreadyMaterialized) and the run records its per-task
	// schedule; at a positive window it must keep at most Spec.Window
	// created-but-unretired descriptors live, so arbitrarily long
	// sources replay in O(window) heap. Run must not retain src once it
	// returns. The returned Result may leave the Engine/Workload labels
	// empty; RunSource stamps them.
	Run(src trace.Source, spec Spec) (*Result, error)
}

var (
	regMu     sync.RWMutex
	engines   = map[string]Engine{}
	workloads = map[string]WorkloadFunc{}
)

// Register adds an engine to the registry. It panics on an empty or
// duplicate name — registration is an init-time programming contract,
// not a runtime condition.
func Register(e Engine) {
	name := e.Name()
	if name == "" {
		panic("sim: Register called with an empty engine name")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := engines[name]; dup {
		panic("sim: duplicate engine registration: " + name)
	}
	engines[name] = e
}

// Lookup resolves an engine by registry name.
func Lookup(name string) (Engine, error) {
	regMu.RLock()
	e, ok := engines[name]
	var have []string
	if !ok {
		for n := range engines {
			have = append(have, n)
		}
	}
	regMu.RUnlock()
	if !ok {
		sort.Strings(have)
		return nil, fmt.Errorf("sim: unknown engine %q (registered: %s; blank-import repro/internal/engines for the built-ins)",
			name, strings.Join(have, ", "))
	}
	return e, nil
}

// Engines lists the registered engine names, sorted.
func Engines() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(engines))
	for n := range engines {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Run builds the spec's workload and executes it on the spec's engine.
// With a bounded window (Spec.Window > 0) the workload is built as a
// lazy Source and streamed, never materialized.
func Run(spec Spec) (*Result, error) {
	spec = spec.WithDefaults()
	if spec.Window > 0 {
		src, err := BuildWorkloadSource(spec)
		if err != nil {
			return nil, err
		}
		return RunSource(src, spec)
	}
	tr, err := BuildWorkload(spec)
	if err != nil {
		return nil, err
	}
	return RunTrace(tr, spec)
}

// adapters recycles the Source adapters RunTrace wraps its traces in,
// so a warm run allocates none. A sync.Pool would not do: a collection
// empties it, and a run large enough to trigger one would pay for a
// fresh adapter every time. The list keeps at most 64 idle adapters,
// more than a sweep runs at once on hosts of up to 64 CPUs; an adapter
// returned to a full list is left to the collector.
var adapters = make(chan *trace.TraceSource, 64)

// RunTrace executes an already-built trace on the spec's engine: it is
// RunSource over the trace wrapped as a Source. Use it for hand-built
// or procedurally generated traces that are not in the workload
// registry.
func RunTrace(tr *trace.Trace, spec Spec) (*Result, error) {
	var ts *trace.TraceSource
	select {
	case ts = <-adapters:
	default:
		ts = new(trace.TraceSource)
	}
	*ts = *trace.FromTrace(tr)
	res, err := RunSource(ts, spec)
	*ts = trace.TraceSource{} // a recycled adapter must not keep the trace alive
	select {
	case adapters <- ts:
	default:
	}
	return res, err
}

// RunSource executes a task source on the spec's engine; every run goes
// through it. A positive Spec.Window streams the source under that
// bounded window. Window == 0 (unbounded) materializes a streamed
// source first, so the engine records the schedule of the whole graph.
// A negative window is refused with ErrNegativeWindow.
func RunSource(src trace.Source, spec Spec) (*Result, error) {
	spec = spec.WithDefaults()
	if spec.Window < 0 {
		return nil, fmt.Errorf("%w, got %d", ErrNegativeWindow, spec.Window)
	}
	if spec.Window == 0 && trace.AlreadyMaterialized(src) == nil {
		tr, err := trace.Materialize(src)
		if err != nil {
			return nil, fmt.Errorf("sim: %s on %s: %w", spec.Engine, src.Name(), err)
		}
		src = trace.FromTrace(tr)
	}
	e, err := Lookup(spec.Engine)
	if err != nil {
		return nil, err
	}
	res, err := e.Run(src, spec)
	if err != nil {
		return nil, fmt.Errorf("sim: %s on %s: %w", e.Name(), src.Name(), err)
	}
	res.Engine = e.Name()
	if res.Workload == "" {
		res.Workload = src.Name()
	}
	return res, nil
}

// Verify checks a result's schedule against the dependence oracle: no
// task may start before every predecessor has finished.
func Verify(tr *trace.Trace, res *Result) error {
	return taskgraph.Build(tr).CheckSchedule(res.Start, res.Finish)
}
