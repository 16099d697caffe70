// Package taskgraph performs software dependence analysis over a trace,
// producing the task dependence DAG under OmpSs semantics:
//
//   - a reader depends on the last writer of the address (RAW);
//   - a writer depends on the last writer (WAW) and on every reader since
//     that writer (WAR);
//   - inout is both a reader and a writer.
//
// This is exactly the analysis the Nanos++ runtime performs in software
// and the Picos DCT performs in hardware; here it serves three roles:
// the *oracle* against which both simulators are verified, the input to
// the Perfect Simulator (roofline), and the dependence engine of the
// software-only runtime model.
package taskgraph

import (
	"fmt"
	"sort"

	"repro/internal/trace"
)

// Graph is the task dependence DAG of a trace. Nodes are task indices in
// creation order.
type Graph struct {
	// N is the number of tasks.
	N int
	// Succ[i] lists the tasks that depend on task i (deduplicated,
	// ascending).
	Succ [][]int32
	// Pred[i] lists the tasks task i depends on (deduplicated, ascending).
	Pred [][]int32
	// Durations[i] is task i's execution time in cycles.
	Durations []uint64
}

// Build runs the dependence analysis over the trace: one Incremental
// pass writes every Pred row, then a counting-sort transpose writes the
// Succ rows. Each side lives in one flat arena sized up front (CSR
// layout); the rows are capped sub-slices of it, so an append to one row
// reallocates instead of overwriting its neighbour.
func Build(tr *trace.Trace) *Graph {
	n := len(tr.Tasks)
	g := &Graph{
		N:         n,
		Succ:      make([][]int32, n),
		Pred:      make([][]int32, n),
		Durations: make([]uint64, n),
	}

	// Every dependence contributes at most one distinct writer
	// predecessor (RAW and WAW name the same task) and each read-only
	// one a single reader node, hence at most one later WAR edge: sized
	// by these counts, neither the arena nor the reader pool regrows.
	deps, reads := 0, 0
	for i := range tr.Tasks {
		for _, d := range tr.Tasks[i].Deps {
			deps++
			if !d.Dir.Writes() {
				reads++
			}
		}
	}
	pred := make([]int32, 0, deps+reads)
	outDeg := make([]int32, n+1)
	inc := NewIncremental()
	inc.readers = make([]readerNode, 0, reads)
	for i := range tr.Tasks {
		task := &tr.Tasks[i]
		g.Durations[i] = task.Duration
		start := len(pred)
		for _, p := range inc.Preds(int32(i), task.Deps) {
			pred = append(pred, p)
			outDeg[p+1]++
		}
		g.Pred[i] = pred[start:len(pred):len(pred)]
	}

	// Transpose: outDeg becomes the row offsets, then each row's write
	// cursor. Visiting tasks in ascending order keeps every Succ row
	// ascending.
	for i := 1; i <= n; i++ {
		outDeg[i] += outDeg[i-1]
	}
	succ := make([]int32, len(pred))
	for i := 0; i < n; i++ {
		g.Succ[i] = succ[outDeg[i]:outDeg[i+1]:outDeg[i+1]]
	}
	for i := 0; i < n; i++ {
		for _, p := range g.Pred[i] {
			succ[outDeg[p]] = int32(i)
			outDeg[p]++
		}
	}
	return g
}

// NumEdges returns the number of (deduplicated) dependence edges.
func (g *Graph) NumEdges() int {
	n := 0
	for _, p := range g.Pred {
		n += len(p)
	}
	return n
}

// Roots returns the tasks with no predecessors (ready at time zero).
func (g *Graph) Roots() []int32 {
	var roots []int32
	for i := 0; i < g.N; i++ {
		if len(g.Pred[i]) == 0 {
			roots = append(roots, int32(i))
		}
	}
	return roots
}

// CriticalPath returns the length in cycles of the longest
// duration-weighted path through the DAG — the execution time with
// unlimited workers and zero overhead.
func (g *Graph) CriticalPath() uint64 {
	finish := make([]uint64, g.N)
	var cp uint64
	// Creation order is a topological order: every predecessor of task i
	// has index < i by construction.
	for i := 0; i < g.N; i++ {
		var start uint64
		for _, p := range g.Pred[i] {
			if finish[p] > start {
				start = finish[p]
			}
		}
		finish[i] = start + g.Durations[i]
		if finish[i] > cp {
			cp = finish[i]
		}
	}
	return cp
}

// BottomLevels returns, for each task, the duration-weighted length of
// the longest path from the task to any sink, the task's own duration
// included — the classic critical-path priority for list scheduling.
// Tasks deeper on the critical path get larger values.
func (g *Graph) BottomLevels() []uint64 {
	bl := make([]uint64, g.N)
	// Creation order is a topological order, so walking tasks backwards
	// visits every successor before its predecessors.
	for i := g.N - 1; i >= 0; i-- {
		var best uint64
		for _, s := range g.Succ[i] {
			if bl[s] > best {
				best = bl[s]
			}
		}
		bl[i] = best + g.Durations[i]
	}
	return bl
}

// MaxParallelism returns the maximum number of tasks simultaneously
// runnable under an ASAP (infinite workers) schedule, a measure of the
// "available parallelism" the paper's Figure 1 discusses.
func (g *Graph) MaxParallelism() int {
	type ev struct {
		t     uint64
		delta int
	}
	finish := make([]uint64, g.N)
	events := make([]ev, 0, 2*g.N)
	for i := 0; i < g.N; i++ {
		var start uint64
		for _, p := range g.Pred[i] {
			if finish[p] > start {
				start = finish[p]
			}
		}
		finish[i] = start + g.Durations[i]
		events = append(events, ev{start, 1}, ev{finish[i], -1})
	}
	sort.Slice(events, func(a, b int) bool {
		if events[a].t != events[b].t {
			return events[a].t < events[b].t
		}
		return events[a].delta < events[b].delta // process ends before starts
	})
	cur, maxp := 0, 0
	for _, e := range events {
		cur += e.delta
		if cur > maxp {
			maxp = cur
		}
	}
	return maxp
}

// CheckSchedule verifies that a simulated schedule is legal: every task
// ran (finish > start >= 0) and no task started before all its DAG
// predecessors finished. start/finish are in cycles, indexed by task.
func (g *Graph) CheckSchedule(start, finish []uint64) error {
	if len(start) != g.N || len(finish) != g.N {
		return fmt.Errorf("taskgraph: schedule length %d/%d, want %d", len(start), len(finish), g.N)
	}
	for i := 0; i < g.N; i++ {
		if finish[i] < start[i] {
			return fmt.Errorf("taskgraph: task %d finishes (%d) before it starts (%d)", i, finish[i], start[i])
		}
		if finish[i] == start[i] && g.Durations[i] > 0 {
			return fmt.Errorf("taskgraph: task %d has zero scheduled time but duration %d", i, g.Durations[i])
		}
		for _, p := range g.Pred[i] {
			if start[i] < finish[p] {
				return fmt.Errorf("taskgraph: task %d started at %d before predecessor %d finished at %d",
					i, start[i], p, finish[p])
			}
		}
	}
	return nil
}

// Levels returns, for each task, the length of the longest predecessor
// chain (root = 0). Useful for rendering the dependence graphs of
// Figure 7.
func (g *Graph) Levels() []int {
	lv := make([]int, g.N)
	for i := 0; i < g.N; i++ {
		for _, p := range g.Pred[i] {
			if lv[p]+1 > lv[i] {
				lv[i] = lv[p] + 1
			}
		}
	}
	return lv
}

// Depth returns the number of levels in the DAG (longest chain, in tasks).
func (g *Graph) Depth() int {
	max := 0
	for _, l := range g.Levels() {
		if l+1 > max {
			max = l + 1
		}
	}
	return max
}
