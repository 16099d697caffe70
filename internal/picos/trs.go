package picos

// trsUnit is one Task Reservation Station: it stores in-flight tasks in
// its Task Memory, tracks dependence readiness, propagates consumer wake
// chains and drives the deletion of finished tasks (Section III-A/B).
type trsUnit struct {
	id     uint8
	p      *Picos
	tm     *taskMemory
	timing *Timing

	// Inputs.
	newQ     regFIFO[newTaskPkt]      // from GW (N3)
	statusQ  regFIFO[depStatusPkt]    // from DCT via ARB (N5)
	wakeQ    regFIFO[wakePkt]         // from DCT/TRS via ARB (F4, chain links)
	finTaskQ regFIFO[finishedTaskPkt] // from GW (F2)

	busyUntil uint64
	busy      uint64 // accumulated busy cycles (stats)
	hid       int32  // horizon key slot
}

func newTRS(id uint8, p *Picos) *trsUnit {
	return &trsUnit{id: id, p: p, tm: newTaskMemory(), timing: &p.cfg.Timing}
}

// reset scrubs the unit back to its just-built state, keeping the task
// memory and queue storage.
func (u *trsUnit) reset() {
	u.tm.reset()
	u.newQ.reset()
	u.statusQ.reset()
	u.wakeQ.reset()
	u.finTaskQ.reset()
	u.busyUntil, u.busy = 0, 0
}

// allocSlot services the GW's New Entry Request.
func (u *trsUnit) allocSlot() (uint16, bool) { return u.tm.alloc() }

func (u *trsUnit) step(now uint64) {
	// Dependence-tracking traffic (statuses, wakes, finish walks) is
	// serviced before new-task insertions: the release->wake->ready round
	// trip of an in-flight chain must not queue behind 10-cycle TM0
	// writes for tasks that are not runnable yet, or chained workloads
	// pace at the insertion rate plus the round trip instead of hiding
	// one under the other (the prototype keeps Table IV case4 at the
	// case2 rate precisely because retirement preempts insertion).
	// Statuses stay ahead of wakes: a wake targeting a dependence whose
	// status lands the same cycle must observe the registered entry.
	// Starving insertions is safe — every admitted task already holds
	// its TM0 slot, so delaying the write only delays that task.
	for u.busyUntil <= now {
		if pkt, ok := u.statusQ.pop(now); ok {
			u.handleStatus(pkt, now)
			continue
		}
		if pkt, ok := u.wakeQ.pop(now); ok {
			u.handleWake(pkt, now)
			continue
		}
		if pkt, ok := u.finTaskQ.pop(now); ok {
			u.handleFinishedTask(pkt, now)
			continue
		}
		if pkt, ok := u.newQ.pop(now); ok {
			u.handleNewTask(pkt, now)
			continue
		}
		return
	}
}

func (u *trsUnit) consume(now, cost uint64) uint64 {
	if f := u.p.cfg.Faults; f != nil {
		// A trs:stall clause extends the first packet this unit
		// services at or after its trigger cycle; tying the stall to a
		// real service event keeps both loops identical with no extra
		// horizon bookkeeping.
		cost += f.StallDelay(int(u.id), now)
	}
	u.busyUntil = now + cost
	u.busy += cost
	u.p.noteBusy(u.busyUntil)
	return u.busyUntil
}

// handleNewTask saves the task in its TM0 slot; a task without
// dependences is ready immediately (N6).
func (u *trsUnit) handleNewTask(pkt newTaskPkt, now uint64) {
	done := u.consume(now, u.timing.TRSNewTask)
	e := u.tm.at(pkt.slot)
	e.id = pkt.id
	e.numDeps = pkt.numDeps
	e.inserted = true
	u.maybeReady(pkt.slot, e, done)
}

// handleStatus records a ready or dependent packet for one dependence.
func (u *trsUnit) handleStatus(pkt depStatusPkt, now uint64) {
	done := u.consume(now, u.timing.TRSStatus)
	e := u.tm.at(pkt.task.Slot)
	d := &e.deps[pkt.depIdx]
	d.registered = true
	d.vm = pkt.vm
	if pkt.ready {
		d.ready = true
		e.readyDeps++
	} else {
		d.hasWake = pkt.hasWake
		d.wakeTask = pkt.wakeTask
	}
	u.maybeReady(pkt.task.Slot, e, done)
}

// handleWake marks a waiting dependence ready and forwards the chain
// wake to the previous consumer, if any (links 2..n of Figure 5).
func (u *trsUnit) handleWake(pkt wakePkt, now uint64) {
	done := u.consume(now, u.timing.TRSWake)
	e := u.tm.at(pkt.task.Slot)
	idx, ok := e.findDepByVM(pkt.vm)
	if !ok || e.deps[idx].ready {
		// A wake must always target a registered, waiting dependence;
		// anything else is a protocol bug worth surfacing in stats.
		u.p.stats.ProtocolErrors++
		return
	}
	d := &e.deps[idx]
	d.ready = true
	e.readyDeps++
	if d.hasWake {
		u.p.arb.route(arbMsg{kind: arbWake, body: depStatusPkt{task: d.wakeTask, vm: pkt.vm}}, done+u.timing.TRSPipe)
	}
	u.maybeReady(pkt.task.Slot, e, done)
}

// maybeReady sends the task to the TS once every dependence is ready.
// Readiness can only be judged after the TM0 write published numDeps:
// statuses serviced ahead of the insertion accumulate in readyDeps and
// are re-evaluated when handleNewTask lands.
func (u *trsUnit) maybeReady(slot uint16, e *tmEntry, at uint64) {
	if !e.inserted || e.sent || e.readyDeps != e.numDeps {
		return
	}
	e.sent = true
	u.p.ts.inQ.push(readyTaskPkt{task: TaskHandle{TRS: u.id, Slot: slot}, id: e.id}, at+u.timing.TRSPipe)
}

// handleFinishedTask performs the finish walk (F3): read TM0, emit one
// finish packet per dependence to the owning DCTs, then recycle the slot.
func (u *trsUnit) handleFinishedTask(pkt finishedTaskPkt, now uint64) {
	e := u.tm.at(pkt.slot)
	n := uint64(e.numDeps)
	u.consume(now, u.timing.TRSFinBase+n*u.timing.TRSFinPerDep)
	h := TaskHandle{TRS: u.id, Slot: pkt.slot}
	for i := 0; i < int(e.numDeps); i++ {
		d := &e.deps[i]
		at := now + u.timing.TRSFinBase + uint64(i+1)*u.timing.TRSFinPerDep + u.timing.TRSPipe
		u.p.arb.route(arbMsg{kind: arbFin, body: depStatusPkt{task: h, vm: d.vm}}, at)
	}
	// The slot is recycled only after the whole walk (N2 can then reuse
	// it without racing the in-flight finish packets: every VM entry that
	// still references this handle belongs to packets already ordered
	// ahead of any reuse).
	u.tm.release(pkt.slot)
	u.p.gw.retry = true // the freed slot may admit a blocked head
	u.p.stats.TasksCompleted++
}

// nextEvent returns the earliest cycle at which the TRS can process its
// next packet: the earliest queue-head visibility, gated by the unit's
// busy timer, or noEvent when every queue is empty.
func (u *trsUnit) nextEvent() uint64 {
	head := min(u.newQ.headAt(), u.statusQ.headAt(), u.wakeQ.headAt(), u.finTaskQ.headAt())
	return max(head, u.busyUntil)
}
