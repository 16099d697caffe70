package perfect

import (
	"container/heap"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/taskgraph"
	"repro/internal/trace"
)

func TestErrors(t *testing.T) {
	tr := &trace.Trace{}
	if _, err := Run(tr, 0); err == nil {
		t.Fatal("accepted 0 workers")
	}
	if r, err := Run(tr, 4); err != nil || r.Makespan != 0 {
		t.Fatalf("empty trace: %v %+v", err, r)
	}
}

func TestChainIsSerial(t *testing.T) {
	tr := &trace.Trace{}
	for i := 0; i < 10; i++ {
		tr.Tasks = append(tr.Tasks, trace.Task{
			ID: uint32(i), Duration: 7,
			Deps: []trace.Dep{{Addr: 0xA, Dir: trace.InOut}},
		})
	}
	r, err := Run(tr, 8)
	if err != nil {
		t.Fatal(err)
	}
	if r.Makespan != 70 {
		t.Fatalf("chain makespan = %d, want 70", r.Makespan)
	}
	if r.Speedup != 1 {
		t.Fatalf("chain speedup = %.2f, want 1", r.Speedup)
	}
}

func TestIndependentPerfectlyParallel(t *testing.T) {
	tr := &trace.Trace{}
	for i := 0; i < 16; i++ {
		tr.Tasks = append(tr.Tasks, trace.Task{ID: uint32(i), Duration: 100})
	}
	r, err := Run(tr, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r.Makespan != 400 {
		t.Fatalf("makespan = %d, want 400 (16 tasks / 4 workers)", r.Makespan)
	}
	if r.Speedup != 4 {
		t.Fatalf("speedup = %.2f, want 4", r.Speedup)
	}
}

func TestLegalityAndBounds(t *testing.T) {
	res, err := apps.Generate(apps.Cholesky, 2048, 128)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	g := taskgraph.Build(tr)
	cp := g.CriticalPath()
	seq := tr.SeqCycles()
	prev := uint64(1 << 62)
	for _, w := range []int{1, 2, 4, 8, 16, 32} {
		r, err := Run(tr, w)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.CheckSchedule(r.Start, r.Finish); err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		// Bounds: critical path <= makespan <= sequential; monotone in w.
		if r.Makespan < cp {
			t.Fatalf("workers=%d: makespan %d below critical path %d", w, r.Makespan, cp)
		}
		if r.Makespan > seq {
			t.Fatalf("workers=%d: makespan %d above sequential %d", w, r.Makespan, seq)
		}
		if r.Makespan > prev {
			t.Fatalf("workers=%d: makespan %d worse than with fewer workers (%d)", w, r.Makespan, prev)
		}
		prev = r.Makespan
	}
	// One worker == sequential.
	r1, _ := Run(tr, 1)
	if r1.Makespan != seq {
		t.Fatalf("1 worker makespan %d != sequential %d", r1.Makespan, seq)
	}
}

func TestGreedyBoundProperty(t *testing.T) {
	// Graham bound: greedy list scheduling is within 2x of optimal, so
	// makespan <= seq/w + cp always holds.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		tr := &trace.Trace{}
		n := 50 + rng.Intn(100)
		for i := 0; i < n; i++ {
			task := trace.Task{ID: uint32(i), Duration: uint64(rng.Intn(500) + 1)}
			for d := rng.Intn(3); d > 0; d-- {
				task.Deps = append(task.Deps, trace.Dep{
					Addr: uint64(rng.Intn(20))*64 + 0x1000,
					Dir:  trace.Direction(rng.Intn(3)),
				})
			}
			// Deduplicate addresses within the task.
			seen := map[uint64]bool{}
			var deps []trace.Dep
			for _, d := range task.Deps {
				if !seen[d.Addr] {
					seen[d.Addr] = true
					deps = append(deps, d)
				}
			}
			task.Deps = deps
			tr.Tasks = append(tr.Tasks, task)
		}
		g := taskgraph.Build(tr)
		w := 1 + rng.Intn(8)
		r, err := Run(tr, w)
		if err != nil {
			t.Fatal(err)
		}
		bound := tr.SeqCycles()/uint64(w) + g.CriticalPath()
		if r.Makespan > bound {
			t.Fatalf("trial %d: makespan %d exceeds Graham bound %d", trial, r.Makespan, bound)
		}
	}
}

// refHeap is container/heap over runItems, ordered on finish time alone:
// the reference the typed runHeap must match.
type refHeap []runItem

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].finish < h[j].finish }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(runItem)) }
func (h *refHeap) Pop() any          { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }

// TestRunHeapMatchesContainerHeap: random push/pop sequences over a few
// distinct finish times (so equal keys abound) leave the typed heap in
// the same layout as container/heap after every step and pop the same
// items in the same order — the tie order that sets the schedule.
func TestRunHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		var got runHeap
		var want refHeap
		for op := 0; op < 400 || len(got) > 0; op++ {
			if op < 400 && (len(got) == 0 || rng.Intn(5) < 3) {
				it := runItem{finish: uint64(rng.Intn(6)), task: int32(op), worker: int32(rng.Intn(4))}
				got.push(it)
				heap.Push(&want, it)
			} else if g, w := got.pop(), heap.Pop(&want).(runItem); g != w {
				t.Fatalf("trial %d op %d: popped %+v, container/heap pops %+v", trial, op, g, w)
			}
			if !slices.Equal(got, runHeap(want)) {
				t.Fatalf("trial %d op %d: heap layout diverged from container/heap", trial, op)
			}
		}
	}
}

// BenchmarkRun times one roofline run on the two software-runtime
// workloads: the dependence analysis, the list scheduler and the Result
// schedule arrays.
func BenchmarkRun(b *testing.B) {
	for _, w := range []struct {
		app            apps.App
		problem, block int
	}{{apps.Cholesky, 2048, 32}, {apps.H264Dec, 10, 2}} {
		res, err := apps.Generate(w.app, w.problem, w.block)
		if err != nil {
			b.Fatal(err)
		}
		tr := res.Trace
		b.Run(tr.Name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := Run(tr, 12); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(tr.Tasks))*float64(b.N)/b.Elapsed().Seconds(), "tasks/s")
		})
	}
}
