package hil

import "repro/internal/faults"

// Fault-path methods of the runner: worker fail-stop, faulty link
// sends, retransmission. Nothing here runs on a fault-free run — every
// call site in runner.go is gated on r.flt != nil.

// applyStops fires due worker:failstop clauses. It runs at the top of
// both loops, before stepWorkers, so a worker killed at its own
// completion cycle never retires — deterministically on both paths,
// which always evaluate at the trigger cycle because NextStop is a
// wake candidate.
func (r *runner) applyStops(now uint64) {
	for i := range r.flt.Stops {
		s := &r.flt.Stops[i]
		if s.Applied || now < s.Cycle {
			continue
		}
		s.Applied = true
		r.flt.Fired = true
		r.killWorker(s.Worker, now)
	}
}

// killWorker fail-stops worker w. An idle victim is pulled from the
// dispatch structures and never granted again; a busy victim
// additionally aborts its in-flight task, which the regrant recovery
// policy re-enqueues through the scheduling layer and which is
// otherwise lost — the accelerator still holds its slot, so dependents
// of a lost task wedge (a faulted wedge, not a model deadlock).
func (r *runner) killWorker(w int, now uint64) {
	if w < 0 || w >= len(r.workers) {
		return // a victim index beyond the platform injects nothing
	}
	if r.pool.Evict(w) {
		r.dead++
		return
	}
	if _, ok := r.busyH.RemoveIdx(w); !ok {
		return // already dead (two clauses naming the same worker)
	}
	r.dead++
	rt := r.workers[w]
	r.unschedule(rt.ID)
	if r.flt.Rec.Regrant {
		// The task stays live (streaming): it will re-run and retire at
		// its eventual completion.
		r.readyBacklog.Push(rt)
		r.recovered++
		r.lastProgress = now
	} else {
		r.lost++
		r.retire(rt.ID)
	}
}

// unschedule erases the schedule entries of a task aborted mid-flight.
// The running start count forgets it too (first/last-start stamps stay —
// they are not recomputable in O(window), and both loops agree on them);
// a streaming run has no schedule arrays to erase.
func (r *runner) unschedule(id uint32) {
	r.aggStarted--
	if r.start == nil {
		return
	}
	r.start[id], r.finish[id] = 0, 0
	for i := len(r.order) - 1; i >= 0; i-- {
		if r.order[i] == id {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
}

// sendFaulty draws every AXI clause for this send, in clause order, and
// applies the combined outcome; it reports false when nothing fired
// (the caller then performs the clean send). A delay extends the link
// occupancy — the in-order stream stutters head-of-line, keeping
// delivery stamps monotone — a dup re-occupies the link for a marked
// second copy the receiver discards, and a drop consumes the occupancy
// but lands nothing, handing the message to the retransmission policy.
func (r *runner) sendFaulty(now, occ uint64, msg busMsg) bool {
	f := r.flt
	drop, dup := false, false
	var extra uint64
	for i := range f.AXI {
		a := &f.AXI[i]
		// Every clause draws on every send — no short-circuiting — so
		// the per-clause streams stay aligned across plans.
		if !a.Hit() {
			continue
		}
		f.Fired = true
		switch a.Kind {
		case faults.KindDrop:
			drop = true
		case faults.KindDelay:
			extra += a.Delay
		case faults.KindDup:
			dup = true
		}
	}
	if !drop && !dup && extra == 0 {
		return false
	}
	flight := r.cfg.Comm.Flight
	occ += extra
	r.busFree = now + occ
	if drop {
		r.loseOrRetry(msg, 1)
		return true
	}
	r.pushDelivery(r.busFree+flight, msg)
	if dup {
		// The duplicate re-occupies the link and lands later: the cost
		// of an axi:dup fault is pure bandwidth.
		r.busFree += occ
		m := msg
		m.dup = true
		r.pushDelivery(r.busFree+flight, m)
	}
	return true
}

// loseOrRetry hands a dropped message to the retransmission policy:
// attempt counts the sends so far, so while attempt <= Retry a resend
// is scheduled with deterministic linear backoff, and anything past
// the budget is permanently lost.
func (r *runner) loseOrRetry(msg busMsg, attempt int) {
	rec := r.flt.Rec
	if attempt <= rec.Retry {
		if msg.kind == busNew {
			r.retryNew++ // stall fresh submissions behind this retry
		}
		r.retryQ.Push(retryEntry{at: r.busFree + rec.Backoff*uint64(attempt), attempt: uint8(attempt), msg: msg})
		return
	}
	r.loseMsg(msg)
}

// loseMsg accounts a permanently lost link message.
func (r *runner) loseMsg(msg busMsg) {
	switch msg.kind {
	case busNew:
		r.lost++
		r.retire(msg.task)
		if r.cfg.Mode == FullSystem {
			r.createdAhead--
		}
	case busReady:
		// The accelerator handed the task out and will never hear from
		// it again: the fetch window reopens, the task is lost, and its
		// dependents wedge downstream (a faulted wedge).
		r.readyInFlight--
		r.lost++
		r.retire(msg.rt.ID)
	case busFin:
		// The worker-side completion already counted; only the
		// accelerator's cleanup is lost. Dependents of the unreclaimed
		// slot may wedge, which the classification attributes to the
		// fault via Faulted.
	}
}

// resend replays a queued retransmission: the link is occupied again
// for the message's occupancy and the drop clauses draw again — a
// retransmission can be lost too — while delay/dup clauses apply only
// to first sends.
func (r *runner) resend(now uint64, e retryEntry) {
	c := &r.cfg.Comm
	var occ uint64
	switch e.msg.kind {
	case busNew:
		occ = c.SendNewOcc
	case busReady:
		occ = c.FetchReadyOcc
	case busFin:
		occ = c.SendFinOcc
	}
	drop := false
	for i := range r.flt.AXI {
		a := &r.flt.AXI[i]
		if a.Kind != faults.KindDrop {
			continue
		}
		if a.Hit() {
			drop = true
			r.flt.Fired = true
		}
	}
	r.busFree = now + occ
	if drop {
		r.loseOrRetry(e.msg, int(e.attempt)+1)
		return
	}
	r.recovered++
	r.lastProgress = now
	r.pushDelivery(r.busFree+c.Flight, e.msg)
}
