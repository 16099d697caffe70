package hil

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/trace"
)

// Ingestion: the platform pulls task descriptors one at a time from a
// trace.Source, the way the paper's gateway drains its bounded new-task
// queue. A task is "live" from the moment the platform creates its
// descriptor (submits it in HW-only mode, hands it to the link in
// HW+comm mode, creates it on the master in Full-system mode) until it
// retires — finishes, is refused at admission (by the avoid-deadlock
// policies or by degrade recovery inside the accelerator), or is
// permanently lost to a fault. At most Config.Window descriptors are
// live at once, so an arbitrarily long source replays in O(window) heap:
// no schedule arrays, no whole-trace task slice, just the live table and
// the running probes.
//
// A materialized source (trace.AlreadyMaterialized) is validated once
// and indexed in place; only a streamed source copies its live
// descriptors into a table keyed by task ID, whose capacity follows the
// number of live descriptors, not the span of IDs they cover. Under an
// unbounded window a materialized source is the whole graph: the run
// records its schedule, the priority policy gets its bottom levels and
// the class coverage check sees the kinds actually used. Every other run
// reports aggregate probes only — Start/Finish/Order stay nil, because
// per-task arrays are exactly the O(tasks) state the window exists to
// avoid — and the priority policy, which needs whole-graph bottom
// levels, is refused with sched.ErrNoBottomLevels.
//
// The window is modeled backpressure on creation. It composes with the
// existing knobs — picos.NewQDepth (the accelerator's submission
// buffer) and RunAhead (the Full-system master's creation window) — so
// a windowed run can legitimately differ from the unbounded one; what
// must not differ is the fast loop against the cycle-stepped reference
// at the same window, which the equivalence matrix enforces.

// windowOpen reports whether the feed may create another descriptor:
// fewer than window tasks are live.
func (r *runner) windowOpen() bool {
	return r.window <= 0 || r.fetched-r.accounted() < r.window
}

// tasksOutstanding reports that tasks which could still produce (or
// become) work remain — live descriptors or an unexhausted source; the
// run loops terminate when it turns false and the platform has drained.
func (r *runner) tasksOutstanding() bool {
	return r.accounted() < r.fetched || r.srcHasNext()
}

// retire drops a live descriptor once it can never act again (finished,
// refused, or lost) from the live table of a streamed source; the window
// slot itself reopens through accounted.
func (r *runner) retire(id uint32) {
	r.live.Delete(uint64(id))
}

// retireDegraded retires the tasks the gateway refused under degrade
// recovery since the last call: the pop happens inside the accelerator,
// which records each refused ID for the runner to pick up.
func (r *runner) retireDegraded(f *faults.PicosFaults) {
	for ; r.degraded < len(f.RefusedIDs); r.degraded++ {
		r.retire(f.RefusedIDs[r.degraded])
	}
}

// taskAt resolves a task index to its descriptor: the materialized trace
// in place, or the live table of a streamed source. Every index the
// runner holds (parked, in flight, granted) belongs to a live task, so
// the table lookup cannot miss.
func (r *runner) taskAt(idx uint32) trace.Task {
	if r.mat != nil {
		return r.mat.Tasks[idx]
	}
	t, _ := r.live.Get(uint64(idx))
	return t
}

// srcHasNext reports whether the source may still produce a task. For a
// streamed source it is conservatively true before the exhausting Next
// call has happened; every consumer peeks (which settles it) before
// acting on it, so a stale true only delays a wedge proof by one
// evaluated iteration.
func (r *runner) srcHasNext() bool {
	if r.mat != nil {
		return r.fetched < len(r.mat.Tasks)
	}
	return r.lookaheadOK || !r.srcDone
}

// srcPeek exposes the next task without consuming it. Streamed tasks are
// validated here, as they arrive — the whole-trace Validate needs a
// whole trace. A validation or mid-stream source error parks in feedErr
// and ends the stream; the run loops surface it.
func (r *runner) srcPeek() (*trace.Task, bool) {
	if r.mat != nil {
		if r.fetched == len(r.mat.Tasks) {
			return nil, false
		}
		return &r.mat.Tasks[r.fetched], true
	}
	if r.lookaheadOK {
		return &r.lookahead, true
	}
	if r.srcDone {
		return nil, false
	}
	t, ok := r.src.Next()
	if !ok {
		r.srcDone = true
		if err := trace.SourceErr(r.src); err != nil && r.feedErr == nil {
			r.feedErr = fmt.Errorf("hil: stream %s: %w", r.src.Name(), err)
		}
		return nil, false
	}
	if err := trace.ValidateTask(&t, r.fetched, len(r.kinds)); err != nil {
		r.srcDone = true
		if r.feedErr == nil {
			r.feedErr = fmt.Errorf("hil: stream %s: %w", r.src.Name(), err)
		}
		return nil, false
	}
	r.lookahead, r.lookaheadOK = t, true
	return &r.lookahead, true
}

// srcCommit makes the peeked task t live and returns its index; a
// streamed descriptor is copied into the live table.
func (r *runner) srcCommit(t *trace.Task) uint32 {
	r.fetched++
	r.aggDur += t.Duration
	if r.mat == nil {
		r.live.Put(uint64(t.ID), *t)
		r.lookaheadOK = false
	}
	return t.ID
}

// stepFeed advances HW+comm ingestion: while the descriptor window has
// room, the next created task is handed to the link at the current
// cycle (an unbounded window hands over the whole trace at cycle 0).
// HW-only feeds in stepSubmits (straight into the accelerator) and
// Full-system in stepMaster (paying the creation cost); both are
// window-gated the same way.
//
//picos:hotpath
func (r *runner) stepFeed(now uint64) {
	if r.cfg.Mode != HWComm {
		return
	}
	for r.windowOpen() {
		t, ok := r.srcPeek()
		if !ok {
			return
		}
		r.pendingNew.Push(stampedTask{at: now, idx: r.srcCommit(t)})
	}
}
