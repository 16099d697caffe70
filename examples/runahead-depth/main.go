// Runahead-depth: sweep the creation run-ahead pipeline of the
// Full-system mode — the accelerator's submission-buffer depth
// (Spec.NewQDepth) against the master's created-but-unsubmitted
// descriptor window (Spec.RunAhead) — on the Table II conflict workload
// (SparseLu/64 on the 8-way direct-hash DM, slots-only admission, the
// configuration whose conflict counts the prototype's deeper run-ahead
// shaped). The sweep shows the two backpressure knobs at work: a
// one-entry buffer with a shallow window serializes the master against
// the accelerator, while the defaults recover the preloaded behavior.
//
// Usage:
//
//	go run ./examples/runahead-depth
//	go run ./examples/runahead-depth -quick
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/sim"

	_ "repro/internal/engines"
)

func main() {
	quick := flag.Bool("quick", false, "smaller problem size")
	flag.Parse()

	problem := 0 // paper default (2048)
	if *quick {
		problem = 1024
	}
	base := sim.Spec{
		Engine:    "picos-full",
		Workload:  "sparselu",
		Problem:   problem,
		Block:     64,
		Design:    "8way",
		Admission: "slots",
	}

	type knob struct {
		label    string
		newQ     int
		runAhead int
	}
	knobs := []knob{
		{"unbounded queue (preload-equivalent)", 0, 0},
		{"newq=16, window=16 (prototype-like)", 16, 16},
		{"newq=4,  window=8", 4, 8},
		{"newq=1,  window=1 (fully serialized)", 1, 1},
	}

	var specs []sim.Spec
	for _, k := range knobs {
		s := base
		s.NewQDepth = k.newQ
		s.RunAhead = k.runAhead
		specs = append(specs, s)
	}
	items := sim.Sweep(specs, 0)

	fmt.Println("SparseLu/64, 8-way DM, slots admission, Full-system, 12 workers")
	fmt.Printf("%-40s %12s %10s %12s %14s\n",
		"run-ahead pipeline", "makespan", "speedup", "#conflicts", "GW blocked cy")
	for i, it := range items {
		if it.Err != "" {
			log.Fatalf("%s: %s", knobs[i].label, it.Err)
		}
		res := it.Result
		st := res.Stats
		fmt.Printf("%-40s %12d %9.2fx %12d %14d\n",
			knobs[i].label, res.Makespan, res.Speedup,
			st.DMConflicts+st.VMStallEvents, st.GWBlockedCycles)
	}
	fmt.Println("\nconflict counts use the DCT's sidetrack accounting (one per")
	fmt.Println("saturated set), which reproduces the prototype's Table II counts.")
}
