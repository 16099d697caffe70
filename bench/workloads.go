package main

import (
	"fmt"

	"repro/internal/sim"
)

// workload is one named op list. A round runs every op once, in an order
// drawn from the run's seed.
type workload struct {
	name string
	why  string
	ops  []op
	// fidelity adds the whole paper comparison to the run's checks.
	fidelity bool
}

// op is one unit of a round: a single run (len(specs) == 1) or a sim.Sweep
// over a grid expansion.
type op struct {
	name  string
	specs []sim.Spec
	sweep bool
}

// sweepParallelism is the goroutine count every sim.Sweep gets: the two
// cores the benchmark is sized for.
const sweepParallelism = 2

func single(name string, spec sim.Spec) op {
	return op{name: name, specs: []sim.Spec{spec}}
}

func grid(name string, g sim.Grid) op {
	return op{name: name, specs: g.Expand(), sweep: true}
}

// paperApps are the four Table I applications the Table II and Figure 11
// grids sweep at block 128.
var paperApps = []string{"heat", "lu", "sparselu", "cholesky"}

// workloads returns the five benchmark workloads. The seed feeds the one
// seeded input (random_nearest); everything else is fixed.
func workloads(seed uint64) []workload {
	return []workload{
		{
			name: "accel-finegrain",
			why:  "HW-only picos on fine-grained apps: no link or master, so the accelerator units and the event horizon carry most CPU time",
			ops: []op{
				single("picos-hw cholesky 1024/32", sim.Spec{Engine: "picos-hw", Workload: "cholesky", Problem: 1024, Block: 32}),
				single("picos-hw sparselu/32", sim.Spec{Engine: "picos-hw", Workload: "sparselu", Block: 32}),
				single("picos-hw heat/32 8way", sim.Spec{Engine: "picos-hw", Workload: "heat", Block: 32, Design: "8way"}),
				single("picos-hw lu/32", sim.Spec{Engine: "picos-hw", Workload: "lu", Block: 32}),
				single("picos-hw h264dec 2f/2", sim.Spec{Engine: "picos-hw", Workload: "h264dec", Problem: 2, Block: 2}),
			},
		},
		{
			name: "platform-full",
			why:  "comm and full-system picos with backpressure, worker classes and link faults: the hil runner, sched.Pool and faults carry real work",
			ops: []op{
				single("picos-full cholesky 1024/32", sim.Spec{Engine: "picos-full", Workload: "cholesky", Problem: 1024, Block: 32}),
				single("picos-comm sparselu/32", sim.Spec{Engine: "picos-comm", Workload: "sparselu", Block: 32}),
				single("picos-full sparselu/64 backpressure", sim.Spec{Engine: "picos-full", Workload: "sparselu", Block: 64,
					Design: "8way", Admission: "slots", NewQDepth: 1, RunAhead: 1}),
				single("picos-full h264dec 4f/4 classes", sim.Spec{Engine: "picos-full", Workload: "h264dec", Problem: 4, Block: 4,
					WorkerClasses: "6xfast+6xslow:2.0", Sched: "locality", Steal: true}),
				single("picos-comm cholesky/64 axi-drop", sim.Spec{Engine: "picos-comm", Workload: "cholesky", Block: 64,
					Faults: "axi:drop=0.001@seed7", Recovery: "retry=3:backoff200"}),
			},
		},
		{
			name: "software-runtime",
			why:  "nanos and perfect only: never touches the accelerator, so a picos-only change must not move it",
			ops: []op{
				single("nanos cholesky/32", sim.Spec{Engine: "nanos", Workload: "cholesky", Block: 32}),
				single("nanos h264dec/2", sim.Spec{Engine: "nanos", Workload: "h264dec", Block: 2}),
				single("nanos sparselu/32 24w", sim.Spec{Engine: "nanos", Workload: "sparselu", Block: 32, Workers: 24}),
				single("perfect cholesky/32", sim.Spec{Engine: "perfect", Workload: "cholesky", Block: 32}),
				single("perfect h264dec/2", sim.Spec{Engine: "perfect", Workload: "h264dec", Block: 2}),
			},
		},
		{
			name: "stream-window",
			why:  "bounded-window pattern streams that are never materialized: the trace.Source ingestion path and the stream runners",
			ops: []op{
				single("picos-hw stencil_1d w256", sim.Spec{Engine: "picos-hw",
					Workload: "pattern:stencil_1d?width=64&steps=128", Window: 256}),
				single("nanos stencil_1d w256", sim.Spec{Engine: "nanos",
					Workload: "pattern:stencil_1d?width=64&steps=128", Window: 256}),
				single("picos-full nearest w64", sim.Spec{Engine: "picos-full",
					Workload: "pattern:nearest?width=32&steps=128&k=5", Window: 64}),
				single("picos-hw random_nearest w128", sim.Spec{Engine: "picos-hw",
					Workload: fmt.Sprintf("pattern:random_nearest?width=64&steps=128&k=3&seed=%d", seed), Window: 128}),
			},
		},
		{
			name:     "paper-sweep",
			why:      "many short runs through sim.Sweep grids of the paper's tables: per-run fixed cost, trace sharing and the sweep executor",
			fidelity: true,
			ops: []op{
				grid("table4", sim.Grid{
					Engines:   []string{"picos-hw", "picos-comm", "picos-full"},
					Workloads: []string{"case1", "case2", "case3", "case4", "case5", "case6", "case7"},
				}),
				grid("table2", sim.Grid{
					Base:      sim.Spec{Engine: "picos-hw", Admission: "slots"},
					Workloads: paperApps,
					Blocks:    []int{128},
					Designs:   []string{"8way", "16way", "p8way"},
				}),
				grid("capacity", sim.Grid{
					Engines: []string{"picos-hw", "nanos", "perfect"},
					Workloads: []string{
						"pattern:stencil_1d?width=16&steps=16",
						"pattern:nearest?width=16&steps=16&k=5",
						"pattern:spread?width=16&steps=16&k=4",
						"pattern:fft?width=16&steps=16",
						"pattern:dom?width=16&steps=16",
						"pattern:tree?width=16&steps=16",
					},
				}),
				grid("fig11", sim.Grid{
					Engines:   []string{"nanos", "perfect"},
					Workloads: paperApps,
					Workers:   []int{1, 4, 8, 12},
					Blocks:    []int{128},
				}),
			},
		},
	}
}

func lookupWorkload(name string, seed uint64) (workload, error) {
	all := workloads(seed)
	for _, w := range all {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(all))
	for i, w := range all {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}
