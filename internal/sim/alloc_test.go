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
//     stats values, and the per-unit busy snapshot — roughly ten
//     allocations; everything else (accelerator memories, FIFOs, worker
//     heaps, the horizon heap) is pool-reused. Headroom covers pool
//     misses when a GC lands mid-measurement.
//   - nanos on cholesky/32 (45760 tasks, 12 workers): the pooled event
//     loop measured 13,788 allocations per warm run, nearly all of them
//     the per-address dependence state of taskgraph.Incremental. The
//     bound sits far below the 616,739 of the earlier container/heap
//     loop, whose interface boxing cost one allocation per event push.
func TestWarmRunTraceAllocs(t *testing.T) {
	for _, c := range []struct {
		spec  sim.Spec
		bound float64
	}{
		{sim.Spec{Engine: "picos-hw", Workload: "case2"}, 24},
		{sim.Spec{Engine: "nanos", Workload: "cholesky", Block: 32, Workers: 12}, 30_000},
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
