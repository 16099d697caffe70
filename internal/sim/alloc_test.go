//go:build !race

// Allocation-regression lock for the warm sweep hot path. The race
// detector changes allocation behaviour, so this only builds without it.

package sim_test

import (
	"testing"

	"repro/internal/sim"

	_ "repro/internal/engines"
)

// TestWarmRunTraceAllocs locks the steady-state allocation count of a
// warm sweep iteration per pooled engine: build the trace once, then
// re-run it through the engine as Sweep does per grid point.
//
//   - picos-hw: the steady-state cost is only what escapes into the
//     Result — the start/finish/order schedule arrays, the Result and
//     stats values, and the per-unit busy snapshot — which measured 8
//     allocations; everything else (accelerator memories, FIFOs, worker
//     heaps, the horizon heap, the platform's trace adapter) is
//     pool-reused. Headroom covers pool misses when a GC lands
//     mid-measurement.
//   - picos-hw and picos-full on cholesky/32 (45,760 tasks) under a
//     64-descriptor window: RunTrace wraps the trace as a Source, and the
//     platform indexes a materialized source in place instead of copying
//     each live descriptor to the heap, so a warm run measured 6
//     allocations.
//   - nanos on cholesky/32 (45,760 tasks, 12 workers) and h264dec/2
//     (34,800 tasks): the pooled event loop, its live table and its
//     pointer-free taskgraph.Incremental reuse every buffer, so a warm
//     run measured 8 allocations on each (9 in some runs on h264dec/2)
//     — the Result and its schedule arrays. The per-address analysis
//     state used to cost 13,788 and 102,072.
//   - perfect on cholesky/32 and h264dec/2: the roofline builds a fresh
//     taskgraph.Graph per run — two CSR arenas plus the row headers —
//     and its address table doubles up to the distinct addresses (2,080
//     and 34,810), which measured 40 and 54 to 57 allocations per warm
//     run. A Go map as the address index cost 61 and 317; a
//     map-of-pointers analysis with one slice per task and
//     container/heap boxing used to cost 341,361 and 391,851.
func TestWarmRunTraceAllocs(t *testing.T) {
	for _, c := range []struct {
		spec  sim.Spec
		bound float64
	}{
		{sim.Spec{Engine: "picos-hw", Workload: "case2"}, 24},
		{sim.Spec{Engine: "picos-hw", Workload: "cholesky", Block: 32, Window: 64}, 100},
		{sim.Spec{Engine: "picos-full", Workload: "cholesky", Block: 32, Window: 64}, 100},
		{sim.Spec{Engine: "nanos", Workload: "cholesky", Block: 32, Workers: 12}, 100},
		{sim.Spec{Engine: "nanos", Workload: "h264dec", Block: 2}, 100},
		{sim.Spec{Engine: "perfect", Workload: "cholesky", Block: 32}, 100},
		{sim.Spec{Engine: "perfect", Workload: "h264dec", Block: 2}, 150},
	} {
		spec := c.spec.WithDefaults()
		tr, err := sim.BuildWorkload(spec)
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			if _, err := sim.RunTrace(tr, spec); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the engine pool and grow every buffer to steady state
		run()
		avg := testing.AllocsPerRun(50, run)
		t.Logf("%s on %s: %.0f allocs per warm run", spec.Engine, tr.Name, avg)
		if avg > c.bound {
			t.Errorf("%s: warm RunTrace allocates %.1f times per run; lock is %.0f", spec.Engine, avg, c.bound)
		}
	}
}
