// Package perfect implements the paper's Perfect Simulator: a
// zero-overhead list scheduler that executes the trace's dependence DAG
// on P workers, showing "the available parallelism peak" — the roofline
// every real runtime is measured against in Figure 11.
package perfect

import (
	"fmt"
	"sync"

	"repro/internal/sched"
	"repro/internal/taskgraph"
	"repro/internal/trace"
)

// Result is the outcome of a roofline run.
type Result struct {
	Workers  int
	Makespan uint64
	Baseline uint64
	Speedup  float64
	Start    []uint64
	Finish   []uint64
}

// runHeap orders running tasks by finish time. It is a typed binary
// heap rather than container/heap (which boxes every pushed item into an
// interface), and its sift steps make exactly container/heap's
// comparisons on finish time alone, with no tie-break: the pop order of
// equal finish times sets the ready order, and so the schedule.
type runHeap []runItem

type runItem struct {
	finish uint64
	task   int32
	worker int32 // heterogeneous path only; 0 on the homogeneous path
}

//picos:hotpath
func (h *runHeap) push(it runItem) {
	*h = append(*h, it)
	s := *h
	for j := len(s) - 1; j > 0; {
		i := (j - 1) / 2
		if s[j].finish >= s[i].finish {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

//picos:hotpath
func (h *runHeap) pop() runItem {
	s := *h
	n := len(s) - 1
	top := s[0]
	s[0] = s[n]
	s = s[:n]
	*h = s
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && s[r].finish < s[j].finish {
			j = r
		}
		if s[j].finish >= s[i].finish {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	return top
}

// nextEvent reports the cycle of the earliest in-flight completion —
// the run's event horizon, the perfect-scheduler counterpart of
// picos.NextEvent. The roofline scheduler is inherently event-driven,
// so sim.Spec's FastForward knob has nothing to switch here.
func (h runHeap) nextEvent() (uint64, bool) {
	if len(h) == 0 {
		return 0, false
	}
	return h[0].finish, true
}

// runScratch is the per-run working state of the list scheduler, pooled
// across runs so steady-state sweeps re-simulate without reallocating
// the run heap and per-task bookkeeping; only the Start/Finish arrays
// that escape into the Result are fresh.
type runScratch struct {
	remaining []int32
	ready     []int32
	running   runHeap
}

var scratchPool = sync.Pool{New: func() any { return new(runScratch) }}

// grab sizes the scratch for n tasks, reusing capacity where possible.
func (s *runScratch) grab(n int) {
	if cap(s.remaining) < n {
		s.remaining = make([]int32, n)
	} else {
		s.remaining = s.remaining[:n]
	}
	s.ready = s.ready[:0]
	s.running = s.running[:0]
}

// Run schedules the trace on `workers` zero-overhead workers: a task
// starts the moment a worker is free and all its predecessors have
// finished; ties dispatch in creation order.
func Run(tr *trace.Trace, workers int) (*Result, error) {
	if workers <= 0 {
		return nil, fmt.Errorf("perfect: need at least 1 worker, got %d", workers)
	}
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("perfect: %w", err)
	}
	g := taskgraph.Build(tr)
	n := g.N
	res := &Result{
		Workers:  workers,
		Baseline: tr.Baseline(),
		Start:    make([]uint64, n),
		Finish:   make([]uint64, n),
	}
	if n == 0 {
		return res, nil
	}

	s := scratchPool.Get().(*runScratch)
	s.grab(n)
	remaining := s.remaining
	ready := s.ready // FIFO in becoming-ready order
	for i := 0; i < n; i++ {
		remaining[i] = int32(len(g.Pred[i]))
		if remaining[i] == 0 {
			ready = append(ready, int32(i))
		}
	}

	running := &s.running
	defer func() {
		// Hand the (possibly grown) buffers back to the pool, emptied —
		// error paths included.
		s.ready = ready[:0]
		*running = (*running)[:0]
		scratchPool.Put(s)
	}()
	now := uint64(0)
	free := workers
	scheduled := 0
	readyHead := 0

	for scheduled < n || len(*running) > 0 {
		// Start everything we can at the current time.
		for free > 0 && readyHead < len(ready) {
			t := ready[readyHead]
			readyHead++
			res.Start[t] = now
			res.Finish[t] = now + g.Durations[t]
			running.push(runItem{finish: res.Finish[t], task: t})
			free--
			scheduled++
		}
		next, ok := running.nextEvent()
		if !ok {
			if readyHead >= len(ready) && scheduled < n {
				return nil, fmt.Errorf("perfect: dependence cycle detected at %d/%d tasks", scheduled, n)
			}
			continue
		}
		// Advance to the next completion horizon (batch all at the same
		// cycle).
		now = next
		it := running.pop()
		complete := func(t int32) {
			for _, s := range g.Succ[t] {
				remaining[s]--
				if remaining[s] == 0 {
					ready = append(ready, s)
				}
			}
			free++
		}
		complete(it.task)
		for len(*running) > 0 && (*running)[0].finish == now {
			complete(running.pop().task)
		}
	}

	for _, f := range res.Finish {
		if f > res.Makespan {
			res.Makespan = f
		}
	}
	if res.Makespan > 0 {
		res.Speedup = float64(res.Baseline) / float64(res.Makespan)
	}
	return res, nil
}

// RunClasses schedules the trace on a heterogeneous zero-overhead
// platform. Greedy work-conserving scheduling is not anomaly-free under
// heterogeneity — eagerly starting a task on a slow idle worker can lose
// to waiting for a fast one — so a single list pass is too weak to serve
// as a roofline. RunClasses therefore runs four achievable schedules and
// returns the best: {becoming-ready FIFO, critical-path priority
// weighted by each task's best eligible class} x {any eligible class,
// best eligible class only}. Every candidate is a real schedule (it
// passes the dependence oracle), so the minimum is achievable and the
// property-suite "engine >= perfect" invariant stays meaningful under
// worker classes. Uniform single-class platforms take the homogeneous
// Run path, which this generalizes.
func RunClasses(tr *trace.Trace, classes sched.Classes) (*Result, error) {
	if classes.Uniform() {
		workers := classes.Workers()
		if len(classes) == 0 {
			workers = 0
		}
		return Run(tr, workers)
	}
	if err := classes.Validate(); err != nil {
		return nil, err
	}
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("perfect: %w", err)
	}
	g := taskgraph.Build(tr)
	n := g.N
	if n == 0 {
		return &Result{
			Workers:  classes.Workers(),
			Baseline: tr.Baseline(),
			Start:    []uint64{},
			Finish:   []uint64{},
		}, nil
	}
	el := classes.Eligibility(tr.Kinds)
	present := make([]bool, len(tr.Kinds)+1)
	for i := range tr.Tasks {
		present[tr.Tasks[i].Kind] = true
	}
	if err := classes.CheckCoverage(tr.Kinds, present); err != nil {
		return nil, err
	}

	// Critical-path bottom levels with every task weighted by its best
	// eligible class — the heterogeneity-aware priority key.
	wbl := make([]uint64, n)
	for i := n - 1; i >= 0; i-- {
		var down uint64
		for _, s := range g.Succ[i] {
			if wbl[s] > down {
				down = wbl[s]
			}
		}
		m, _ := classes.BestMult(el, tr.Tasks[i].Kind)
		wbl[i] = down + scaleMult(m, g.Durations[i])
	}

	var best *Result
	for _, cand := range [...]struct {
		prio     []uint64
		bestOnly bool
	}{
		{nil, false}, // FIFO, any eligible class
		{wbl, false}, // weighted critical path, any eligible class
		{nil, true},  // FIFO, best class only
		{wbl, true},  // weighted critical path, best class only
	} {
		res, err := runClassList(tr, classes, g, el, cand.prio, cand.bestOnly)
		if err != nil {
			return nil, err
		}
		if best == nil || res.Makespan < best.Makespan {
			best = res
		}
	}
	return best, nil
}

// scaleMult is Classes.Scale for a raw multiplier.
func scaleMult(m float64, dur uint64) uint64 {
	if m == 1.0 {
		return dur
	}
	d := uint64(float64(dur) * m)
	if d == 0 {
		d = 1
	}
	return d
}

// runClassList is one heterogeneous list-scheduling pass: ready tasks
// are granted in prio order (descending, becoming-ready order on ties
// and when prio is nil) to the idle eligible worker with the smallest
// multiplier (lowest worker index on ties); with bestOnly a task only
// accepts classes matching its best eligible multiplier.
func runClassList(tr *trace.Trace, classes sched.Classes, g *taskgraph.Graph, el [][]bool, prio []uint64, bestOnly bool) (*Result, error) {
	n := g.N
	workers := classes.Workers()
	res := &Result{
		Workers:  workers,
		Baseline: tr.Baseline(),
		Start:    make([]uint64, n),
		Finish:   make([]uint64, n),
	}

	// Workers are expanded contiguously in class declaration order, one
	// lowest-index-first idle heap per class.
	classOf := make([]uint8, workers)
	idle := make([]sched.IdleHeap, len(classes))
	w := 0
	for ci, c := range classes {
		for k := 0; k < c.Count; k++ {
			classOf[w] = uint8(ci)
			idle[ci].Push(w)
			w++
		}
	}
	eligible := func(ci int, kind uint16) bool {
		if el[ci] != nil && !el[ci][kind] {
			return false
		}
		if !bestOnly {
			return true
		}
		m, _ := classes.BestMult(el, kind)
		return classes[ci].Mult == m
	}
	// bestIdle picks the idle eligible worker with the smallest
	// multiplier; among equal multipliers, the lowest worker index.
	bestIdle := func(kind uint16) (int, bool) {
		bi := -1
		for ci := range classes {
			if len(idle[ci]) == 0 || !eligible(ci, kind) {
				continue
			}
			if bi < 0 || classes[ci].Mult < classes[bi].Mult ||
				(classes[ci].Mult == classes[bi].Mult && idle[ci][0] < idle[bi][0]) {
				bi = ci
			}
		}
		if bi < 0 {
			return 0, false
		}
		return idle[bi].Pop(), true
	}

	remaining := make([]int32, n)
	var ready []int32 // kept sorted: prio descending, becoming-ready on ties
	insert := func(t int32) {
		if prio == nil {
			ready = append(ready, t)
			return
		}
		i := len(ready)
		for i > 0 && prio[ready[i-1]] < prio[t] {
			i--
		}
		ready = append(ready, 0)
		copy(ready[i+1:], ready[i:])
		ready[i] = t
	}
	for i := 0; i < n; i++ {
		remaining[i] = int32(len(g.Pred[i]))
		if remaining[i] == 0 {
			insert(int32(i))
		}
	}
	var running runHeap
	now := uint64(0)
	scheduled := 0

	for scheduled < n || len(running) > 0 {
		// Grant pass: place every ready task (in list order) that has an
		// idle eligible worker; the rest stay ready. Placements only
		// consume workers, so one pass is complete.
		kept := ready[:0]
		for _, t := range ready {
			wi, ok := bestIdle(tr.Tasks[t].Kind)
			if !ok {
				kept = append(kept, t)
				continue
			}
			dur := classes.Scale(int(classOf[wi]), g.Durations[t])
			res.Start[t] = now
			res.Finish[t] = now + dur
			running.push(runItem{finish: res.Finish[t], task: t, worker: int32(wi)})
			scheduled++
		}
		ready = kept
		next, ok := running.nextEvent()
		if !ok {
			if scheduled < n {
				return nil, fmt.Errorf("perfect: dependence cycle detected at %d/%d tasks", scheduled, n)
			}
			continue
		}
		now = next
		complete := func(it runItem) {
			for _, s := range g.Succ[it.task] {
				remaining[s]--
				if remaining[s] == 0 {
					insert(s)
				}
			}
			idle[classOf[it.worker]].Push(int(it.worker))
		}
		complete(running.pop())
		for len(running) > 0 && running[0].finish == now {
			complete(running.pop())
		}
	}

	for _, f := range res.Finish {
		if f > res.Makespan {
			res.Makespan = f
		}
	}
	if res.Makespan > 0 {
		res.Speedup = float64(res.Baseline) / float64(res.Makespan)
	}
	return res, nil
}
