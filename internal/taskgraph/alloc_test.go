//go:build !race

// The race detector changes allocation behaviour, so this only builds
// without it.

package taskgraph

import (
	"testing"

	"repro/internal/apps"
)

// TestWarmIncrementalAllocs locks the reuse contract of Incremental: a
// warm analysis re-run over cholesky/32 (45,760 tasks, 2,080 addresses)
// after Reset makes no allocation at all — the address table, the slot
// array, the reader pool and the predecessor scratch all keep their
// capacity.
func TestWarmIncrementalAllocs(t *testing.T) {
	res, err := apps.Generate(apps.Cholesky, 2048, 32)
	if err != nil {
		t.Fatal(err)
	}
	tasks := res.Trace.Tasks
	inc := NewIncremental()
	run := func() {
		inc.Reset()
		for i := range tasks {
			inc.Preds(int32(i), tasks[i].Deps)
		}
	}
	run()
	if avg := testing.AllocsPerRun(5, run); avg != 0 {
		t.Errorf("warm Incremental allocates %.1f times per cholesky/32 pass; want 0", avg)
	}
}
