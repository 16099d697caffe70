package picos

import "repro/internal/trace"

// submittedTask is a task sitting in the Gateway's new-task queue.
type submittedTask struct {
	id   uint32
	deps []trace.Dep
}

// gateway is the first interface between Picos and the cores: it fetches
// new tasks and finished tasks and dispatches them to TRSs and DCTs
// (flows N1-N4 and F1-F2). Its admission rule is the paper's corrected
// operational workflow: a new task is only taken when a TRS slot is free
// — and, to keep a partially registered task from wedging the version
// store, when every DCT retains VM headroom for a full task's worth of
// dependences.
type gateway struct {
	p      *Picos
	timing *Timing

	newQ regFIFO[submittedTask] // from the cores (N1)
	finQ regFIFO[TaskHandle]    // from the workers (F1)

	// vmCredits is the hardware-style flow control that implements the
	// paper's corrected operational workflow: each DCT grants credits for
	// (capacity - reserve) dependences; the GW debits one credit per
	// dependence at admission and the DCT returns it when the release is
	// processed. Since a live VM entry always has at least one unfinished
	// participant holding a credit, the version store can never be
	// exhausted by admitted work.
	vmCredits []int

	rrTRS        int    // round-robin TRS allocation pointer
	busyUntil    uint64 // new-task engine
	busyUntilFin uint64 // finished-task engine (independent datapath)
	busy         uint64
	blocked      bool   // admission-blocked on the head of newQ
	blockedAt    uint64 // cycle the current blocked stretch began
	need         []int  // admit scratch: per-DCT credit demand
	hid          int32  // horizon key slot

	// retry records that a credit came back or a TM slot was freed since
	// the last admission attempt: only those can turn a refusal into an
	// admission, so the fast path re-runs a blocked head's admission
	// only while it is set.
	retry bool
}

func newGateway(p *Picos) *gateway {
	return &gateway{p: p, timing: &p.cfg.Timing}
}

// initCredits sizes the credit pools once the DCTs exist; the slices are
// reused across Resets when the DCT count is unchanged.
func (g *gateway) initCredits() {
	n := len(g.p.dct)
	if cap(g.vmCredits) < n {
		g.vmCredits = make([]int, n)
		g.need = make([]int, n)
	} else {
		g.vmCredits = g.vmCredits[:n]
		g.need = g.need[:n]
	}
	// Each shard grants credits against its own partition of the VM:
	// a sharded fabric divides the design's capacity, it does not
	// multiply it, so per-shard room is shardCapacity - reserve.
	perShard := shardCapacity(g.p.cfg.Design, g.p.cfg.NumDCT) - vmReserve
	for i := range g.vmCredits {
		g.vmCredits[i] = perShard
		g.need[i] = 0
	}
}

// reset scrubs the gateway back to its just-built state, keeping queue
// storage. Credit pools are resized by the initCredits that follows.
func (g *gateway) reset() {
	g.newQ.reset()
	g.finQ.reset()
	g.rrTRS = 0
	g.busyUntil, g.busyUntilFin, g.busy = 0, 0, 0
	g.blocked, g.retry = false, false
	g.blockedAt = 0
}

// returnCredit is called by a DCT when it has processed one release.
func (g *gateway) returnCredit(dct uint8) {
	g.vmCredits[dct]++
	g.retry = true
}

// chargeStall adds n cycles of the admission retries a blocked head
// re-fails while nothing it waits on changes.
func (g *gateway) chargeStall(n uint64) {
	if g.blocked {
		g.p.stats.GWBlockedCycles += n
	}
}

func (g *gateway) step(now uint64) {
	p := g.p
	// Finished-task engine: drains completions independently of the
	// new-task path so retiring work never throttles admission.
	for g.busyUntilFin <= now {
		h, ok := g.finQ.pop(now)
		if !ok {
			break
		}
		done := now + g.timing.GWFinTask
		g.busyUntilFin = done
		g.busy += g.timing.GWFinTask
		p.noteBusy(done)
		p.trs[h.TRS].finTaskQ.push(finishedTaskPkt{slot: h.Slot}, done+g.timing.GWFinPipe)
	}
	for g.busyUntil <= now {
		t, ok := g.newQ.peek(now)
		if !ok {
			g.blocked = false
			return
		}
		if f := p.cfg.Faults; f != nil && f.Degrade > 0 && g.blocked && now >= g.blockedAt+f.Degrade {
			// Graceful degradation: the head has been inadmissible for
			// the whole degrade window (leaked credits or version slots
			// on a sick shard will never come back), so refuse it and
			// let the surviving shards keep serving instead of wedging.
			g.newQ.drop()
			g.blocked = false
			f.RefusedIDs = append(f.RefusedIDs, t.id)
			f.Fired = true
			continue
		}
		g.retry = false
		trsID, slot, admitted := g.admit(t.deps)
		if !admitted {
			if !g.blocked {
				// The head leaves the horizon until an external finish
				// frees resources.
				g.blocked = true
				g.blockedAt = now
			}
			p.stats.GWBlockedCycles++
			g.busyUntil = now + 1
			p.noteBusy(g.busyUntil)
			return
		}
		g.blocked = false
		g.newQ.drop()
		cost := g.timing.GWNewTask + uint64(len(t.deps))*g.timing.GWPerDep
		if f := p.cfg.Faults; f != nil {
			// gw:stall — a one-shot admission-path stall extending this
			// admission's busy window; later submissions back up in the
			// new-task queue behind it.
			cost += f.GWStallDelay(now)
		}
		g.busyUntil = now + cost
		g.busy += cost
		p.noteBusy(g.busyUntil)

		handle := TaskHandle{TRS: trsID, Slot: slot}
		p.trs[trsID].newQ.push(newTaskPkt{slot: slot, id: t.id, numDeps: uint8(len(t.deps))},
			now+g.timing.GWNewTask+g.timing.GWPipe)
		sharded := len(p.dct) > 1
		for i, d := range t.deps {
			at := now + g.timing.GWNewTask + uint64(i+1)*g.timing.GWPerDep + g.timing.GWPipe
			if sharded {
				// On a sharded fabric the GW has no private port per
				// shard: dependence traffic crosses the arbiter and pays
				// the destination shard's chain distance like every
				// other DCT-bound message.
				p.arb.route(arbMsg{kind: arbNewDep, dir: d.Dir, body: depStatusPkt{task: handle, depIdx: uint8(i)}, addr: d.Addr}, at)
				continue
			}
			// A single DCT keeps the prototype's direct GW->DCT wiring.
			p.dct[0].newDepQ.push(newDepPkt{addr: d.Addr, task: handle, depIdx: uint8(i), dir: d.Dir}, at)
		}
		p.stats.TasksAdmitted++
		if inFlight := p.InFlight(); inFlight > p.stats.MaxInFlightTasks {
			p.stats.MaxInFlightTasks = inFlight
		}
	}
}

// admit implements N2 as a two-phase reserve/commit: a multi-address
// task may span several DCT shards, and its dependences must land on
// all of them or none — a partial registration would hold VM entries on
// some shards while the task can never start, wedging the fabric.
//
// Phase 1 (reserve) debits every shard's credit pool for the task's
// per-shard demand, rolling the debits back if any single shard lacks
// room (the room check is per shard against that shard's partition of
// the VM, not against the pooled total: one saturated shard must block
// the task even when the others are empty). Phase 2 (commit) binds the
// reservation to a TRS slot; if no slot is free the reservation is
// rolled back and the task retries, leaving the pools untouched.
func (g *gateway) admit(deps []trace.Dep) (uint8, uint16, bool) {
	// The avoid-deadlock policies keep the credit reservation: the
	// submit-time feasibility check replaces only the wedge, not the
	// version-store flow control.
	credits := g.p.cfg.Admission != AdmitSlotsOnly
	need := g.need
	if credits {
		for i := range need {
			need[i] = 0
		}
		for _, d := range deps {
			need[g.p.dctOf(d.Addr)]++
		}
		// Phase 1: reserve on every shard, rolling back on the first
		// shard without room.
		for i := range g.p.dct {
			if need[i] > g.vmCredits[i] {
				for j := 0; j < i; j++ {
					g.vmCredits[j] += need[j]
				}
				return 0, 0, false
			}
			g.vmCredits[i] -= need[i]
		}
	}
	// Phase 2: commit the reservation to a TRS slot.
	n := len(g.p.trs)
	for i := 0; i < n; i++ {
		u := g.p.trs[(g.rrTRS+i)%n]
		if slot, ok := u.allocSlot(); ok {
			g.rrTRS = (g.rrTRS + i + 1) % n
			return u.id, slot, true
		}
	}
	if credits {
		for j := range g.p.dct {
			g.vmCredits[j] += need[j]
		}
	}
	return 0, 0, false
}

// nextEvent returns the earliest cycle at which the GW can make progress
// on its own: drain a finished task or take the head of the new-task
// queue; noEvent when it never will. A blocked head is excluded — only
// an external finish (arriving through some other unit's event) can
// unblock it, and the per-cycle retries it would burn in between are
// charged by chargeStall.
func (g *gateway) nextEvent() uint64 {
	next := max(g.finQ.headAt(), g.busyUntilFin)
	if !g.blocked {
		next = min(next, max(g.newQ.headAt(), g.busyUntil))
	} else if f := g.p.cfg.Faults; f != nil && f.Degrade > 0 {
		// A blocked head under degrade recovery makes progress on its
		// own: the refusal pop fires at the end of the degrade window,
		// so the deadline is a real event the fast path must step at.
		next = min(next, g.blockedAt+f.Degrade)
	}
	return next
}
