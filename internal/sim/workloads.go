package sim

import (
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/apps"
	"repro/internal/patterns"
	"repro/internal/synth"
	"repro/internal/trace"
)

// WorkloadFunc builds a trace from a spec. The spec carries the sizing
// knobs (Problem, Block); builders that do not take parameters ignore
// it.
type WorkloadFunc func(spec Spec) (*trace.Trace, error)

// TracePrefix marks a workload name as a serialized trace file:
// "trace:heat.bin" reads heat.bin instead of consulting the registry.
const TracePrefix = "trace:"

// PatternPrefix marks a workload name as a parameterized dependence-
// pattern family: "pattern:stencil_1d?width=64&steps=100" builds a
// task-bench-style grid through internal/patterns. The parameters ride
// inside the workload name, so sweeps, grids and the trace-sharing cache
// treat every parameterization as a distinct workload with no extra
// plumbing.
const PatternPrefix = "pattern:"

// RegisterWorkload adds a workload builder to the registry. Like
// Register, it panics on an empty or duplicate name.
func RegisterWorkload(name string, fn WorkloadFunc) {
	if name == "" {
		panic("sim: RegisterWorkload called with an empty name")
	}
	if strings.HasPrefix(name, TracePrefix) {
		panic("sim: workload name must not start with " + TracePrefix)
	}
	if strings.HasPrefix(name, PatternPrefix) {
		panic("sim: workload name must not start with " + PatternPrefix)
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := workloads[name]; dup {
		panic("sim: duplicate workload registration: " + name)
	}
	workloads[name] = fn
}

// Workloads lists the registered workload names, sorted.
func Workloads() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// BuildWorkload resolves and builds the spec's workload: a "trace:<path>"
// file, a "pattern:<family>?k=v" parameterized dependence pattern, or a
// registry entry. The built trace is validated before it is returned.
func BuildWorkload(spec Spec) (*trace.Trace, error) {
	name := spec.Workload
	if path, ok := strings.CutPrefix(name, TracePrefix); ok {
		return readTraceFile(path)
	}
	if rest, ok := strings.CutPrefix(name, PatternPrefix); ok {
		p, err := patterns.Parse(rest)
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		src, err := patterns.Generate(p, 0)
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		return trace.Materialize(src)
	}
	regMu.RLock()
	fn, ok := workloads[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("sim: unknown workload %q (have %s; %s<path>; or %s<family>?width=..&steps=.. with families %s)",
			name, strings.Join(Workloads(), ", "), TracePrefix, PatternPrefix,
			strings.Join(patterns.Families(), ", "))
	}
	tr, err := fn(spec)
	if err != nil {
		return nil, fmt.Errorf("sim: workload %s: %w", name, err)
	}
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("sim: workload %s built an invalid trace: %w", name, err)
	}
	return tr, nil
}

// BuildWorkloadSource resolves the spec's workload as a streaming
// trace.Source. Pattern workloads generate lazily (internal/patterns
// never materializes the grid; the dagfile family streams its JSON node
// array under a Spec.Window retention bound). Trace files and registry
// workloads — which are materialized by nature (a serialized file, a
// generator that builds whole benchmark traces) — are built whole and
// wrapped, keeping the Source contract uniform for callers even where
// the memory bound cannot apply.
func BuildWorkloadSource(spec Spec) (trace.Source, error) {
	name := spec.Workload
	if rest, ok := strings.CutPrefix(name, PatternPrefix); ok {
		p, err := patterns.Parse(rest)
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		src, err := patterns.Generate(p, spec.Window)
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		return src, nil
	}
	tr, err := BuildWorkload(spec)
	if err != nil {
		return nil, err
	}
	return trace.FromTrace(tr), nil
}

func readTraceFile(path string) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	defer f.Close()
	tr, err := trace.Read(f)
	if err != nil {
		return nil, fmt.Errorf("sim: trace file %s: %w", path, err)
	}
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("sim: trace file %s invalid: %w", path, err)
	}
	return tr, nil
}

// The built-in workloads: the six real benchmarks of Table I (mlu is the
// modified-creation-order Lu variant of Figure 9) and the seven
// synthetic capacity cases of Table IV.
func init() {
	for _, app := range []apps.App{apps.Heat, apps.Lu, apps.MLu, apps.SparseLu, apps.Cholesky, apps.H264Dec} {
		RegisterWorkload(string(app), appWorkload(app))
	}
	for c := 1; c <= 7; c++ {
		RegisterWorkload(fmt.Sprintf("case%d", c), caseWorkload(c))
	}
}

func appWorkload(app apps.App) WorkloadFunc {
	return func(spec Spec) (*trace.Trace, error) {
		problem, block := spec.Problem, spec.Block
		if problem == 0 {
			problem = apps.DefaultProblem
			if app == apps.H264Dec {
				problem = 10 // HD frames, the paper's h264dec input
			}
		}
		if block == 0 {
			block = 128
			if app == apps.H264Dec {
				block = 4 // macroblock grouping
			}
		}
		res, err := apps.Generate(app, problem, block)
		if err != nil {
			return nil, err
		}
		return res.Trace, nil
	}
}

func caseWorkload(c int) WorkloadFunc {
	return func(Spec) (*trace.Trace, error) { return synth.Case(c) }
}
