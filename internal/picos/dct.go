package picos

// dctUnit is one Dependence Chain Tracker: it performs address matching
// in the Dependence Memory, maintains version chains in the Version
// Memory, and emits ready/dependent/wake packets (Sections III-A/C/D).
type dctUnit struct {
	id     uint8
	p      *Picos
	dm     *depMemory
	vm     *versionMemory
	timing *Timing

	// Inputs.
	newDepQ regFIFO[newDepPkt]    // from GW (N4)
	finQ    regFIFO[finishDepPkt] // from TRS via ARB (F3)

	// Head-of-line stall state for newDepQ: a dependence that cannot be
	// stored blocks the queue — and with it, registration of every later
	// dependence routed here — until a release frees space. Under the
	// default ConflictSidetrack policy only VM exhaustion and second-set
	// conflicts stall the head this way; a first DM-set conflict parks in
	// the sidetrack register below instead. stall records which per-cycle
	// counter the retries feed, so a fast-forwarded stretch can
	// batch-account exactly what the cycle-by-cycle retries would have.
	headStalled     bool
	conflictCounted bool
	stall           stallKind

	// Conflict sidetrack register (ConflictSidetrack): one dependence
	// whose DM set was full, parked out of the queue so registration of
	// later dependences keeps flowing. The parked dependence retries
	// every cycle the registration engine is free, with strict priority
	// over the queue, which preserves program order per address (a later
	// dependence on the same address maps to the same — still full — set
	// and can never overtake) and keeps the set closed to younger
	// insertions, so the head-of-line deadlock-freedom argument carries
	// over unchanged. parkedStall records why the last retry failed (the
	// set may drain into a VM shortage), for the same batch-accounting
	// as the head stall.
	hasParked   bool
	parked      newDepPkt
	parkedSet   int
	parkedStall stallKind
	// parkedRetryAt is the cycle of the next retry whose answer can
	// differ from the last one, the only retry the fast path runs. The
	// answer depends only on this DCT's DM and VM, and it changes in two
	// cases: a version recycles (completeVersion frees a DM way or a VM
	// entry), or a registration takes the last VM entry (the DM-set
	// conflict becomes a VM stall). Either owes a retry at
	// max(busyUntil, now), the first cycle the registration engine is
	// free; a release that recycles nothing owes none. The reference
	// Step still retries at every free cycle, and those extra retries
	// re-fail with the same answer, so both loops charge the same stall
	// counters. Zero means no retry is owed; every retry clears it.
	parkedRetryAt uint64

	busyUntil    uint64 // registration engine
	busyUntilFin uint64 // release engine (overlapped in the prototype)
	busy         uint64
	hid          int32 // horizon key slot
}

// stallKind labels why a dependence cannot be stored, i.e. which Stats
// counter every retry cycle feeds.
type stallKind uint8

const (
	stallNone   stallKind = iota
	stallVMFull           // version memory exhausted (VMStallCycles)
	stallDMSet            // DM set full (DMConflictStallCycles)
)

func newDCT(id uint8, p *Picos) *dctUnit {
	design := p.cfg.Design
	return &dctUnit{
		id:     id,
		p:      p,
		dm:     newDepMemory(design, shardSets(p.cfg.NumDCT)),
		vm:     newVersionMemory(shardCapacity(design, p.cfg.NumDCT)),
		timing: &p.cfg.Timing,
	}
}

// reset scrubs the unit back to its just-built state: the dependence and
// version memories are cleared in place and only reallocated when the
// design or the shard count changes their shape (associativity and the
// shard's partition of sets size both).
func (u *dctUnit) reset(design DMDesign) {
	sets := shardSets(u.p.cfg.NumDCT)
	if u.dm.ways != design.Ways() || u.dm.numSets != sets {
		u.dm = newDepMemory(design, sets)
	} else {
		u.dm.reset()
		u.dm.design = design
	}
	if capacity := shardCapacity(design, u.p.cfg.NumDCT); len(u.vm.entries) != capacity {
		u.vm = newVersionMemory(capacity)
	} else {
		u.vm.reset()
	}
	u.newDepQ.reset()
	u.finQ.reset()
	u.headStalled, u.conflictCounted, u.stall = false, false, stallNone
	u.hasParked, u.parked, u.parkedSet, u.parkedStall = false, newDepPkt{}, 0, stallNone
	u.parkedRetryAt = 0
	u.busyUntil, u.busyUntilFin, u.busy = 0, 0, 0
}

// sidetracked reports whether the conflict sidetrack is enabled.
func (u *dctUnit) sidetracked() bool { return u.p.cfg.Conflict == ConflictSidetrack }

// step runs the DCT for cycle now. reference is set by the
// cycle-stepped Step, whose parked dependence retries at every cycle the
// registration engine is free; stepDue passes false, and the parked
// dependence then retries only when a retry is owed (parkedRetryAt).
func (u *dctUnit) step(now uint64, reference bool) {
	// Release engine: frees DM ways and VM entries — including the very
	// stalls blocking the registration path — without costing
	// registration throughput.
	for u.busyUntilFin <= now {
		pkt, ok := u.finQ.pop(now)
		if !ok {
			break
		}
		u.handleFinish(pkt, now)
	}
	// Sidetrack retry port: the parked dependence retries once per cycle
	// (when the registration engine is free) with priority over the
	// queue, and charges its stall counter every cycle it stays parked —
	// exactly what a stalled queue head would have charged. The fast
	// path runs only the owed retries; chargeStall and the charge below
	// account for the cycles it skips.
	if u.hasParked {
		if u.busyUntil <= now && (reference || u.parkedRetryAt != 0) {
			u.parkedRetryAt = 0
			if kind := u.tryNewDep(u.parked, now); kind == stallNone {
				u.hasParked = false
				u.parked = newDepPkt{}
				// The head (possibly stalled behind this very set) is
				// re-attempted once the engine frees; put it back on the
				// horizon so the fast path wakes for that attempt. Its
				// conflictCounted marker survives so a re-stall does not
				// count the same dependence twice.
				u.headStalled = false
				u.stall = stallNone
			} else {
				u.parkedStall = kind
			}
		}
		if u.hasParked {
			u.p.stats.chargeStall(u.parkedStall, 1)
		}
	}
	for u.busyUntil <= now {
		pkt, ok := u.newDepQ.peek(now)
		if !ok {
			return
		}
		kind := u.tryNewDep(pkt, now)
		if kind == stallNone {
			u.newDepQ.drop()
			u.headStalled = false
			u.conflictCounted = false
			u.stall = stallNone
			if u.hasParked && u.parkedStall == stallDMSet && u.vm.freeCount() == 0 {
				// This registration took the last VM entry: the parked
				// retry now fails on the VM, not the set (see
				// parkedRetryAt).
				u.parkedRetryAt = u.busyUntil
			}
			continue
		}
		if kind == stallDMSet && u.sidetracked() && !u.hasParked {
			// Park the conflict and keep registering: the dependence
			// found its set full — one DM conflict, counted unless this
			// head was already counted while waiting on a different set —
			// and moves to the sidetrack so later dependences (which the
			// creation pipeline keeps delivering) still flow.
			u.newDepQ.drop()
			u.hasParked = true
			u.parked = pkt
			u.parkedSet = u.dm.index(pkt.addr)
			u.parkedStall = stallDMSet
			if !u.conflictCounted {
				u.p.stats.DMConflicts++
			}
			u.p.stats.DMConflictStallCycles++
			u.headStalled = false
			u.conflictCounted = false
			u.stall = stallNone
			u.busyUntil = now + 1
			u.p.noteBusy(u.busyUntil)
			return
		}
		// Stalled: retry next cycle, and drop the head from the horizon —
		// only a release can make the retry succeed.
		u.headStalled = true
		if kind == stallVMFull {
			if !u.conflictCounted {
				u.p.stats.VMStallEvents++
				u.conflictCounted = true
			}
			u.p.stats.VMStallCycles++
			u.stall = stallVMFull
		} else {
			// A head conflicting while the sidetrack is occupied waits in
			// order. If it waits on a different set than the parked
			// dependence, that is a distinct saturated set — a conflict of
			// its own; the same set is the episode the sidetrack already
			// counted (the head inherits it when the slot frees, without
			// recounting).
			if !u.conflictCounted && (!u.sidetracked() || u.dm.index(pkt.addr) != u.parkedSet) {
				u.p.stats.DMConflicts++
				u.conflictCounted = true
			}
			u.p.stats.DMConflictStallCycles++
			u.stall = stallDMSet
		}
		u.busyUntil = now + 1
		u.p.noteBusy(u.busyUntil)
		return
	}
}

// chargeStall adds n cycles of the retries the parked dependence and the
// stalled head re-fail while the DM and VM stay unchanged.
func (u *dctUnit) chargeStall(n uint64) {
	if u.hasParked {
		u.p.stats.chargeStall(u.parkedStall, n)
	}
	if u.headStalled {
		u.p.stats.chargeStall(u.stall, n)
	}
}

func (u *dctUnit) consume(now, cost uint64) uint64 {
	if f := u.p.cfg.Faults; f != nil {
		cost = f.ScaleDCT(int(u.id), cost)
	}
	u.busyUntil = now + cost
	u.busy += cost
	u.p.noteBusy(u.busyUntil)
	return u.busyUntil
}

// egress stamps a packet leaving this shard: shard k sits k fabric
// registers away from the arbiter port, so its outbound traffic pays
// k shard hops before it is routable. Shard 0 (every single-DCT build)
// pays nothing.
func (u *dctUnit) egress(at uint64) uint64 {
	return at + uint64(u.id)*u.timing.ShardHop
}

func (u *dctUnit) sendStatus(pkt depStatusPkt, at uint64) {
	u.p.arb.route(arbMsg{kind: arbStat, body: pkt}, u.egress(at))
}

func (u *dctUnit) sendWake(pkt wakePkt, at uint64) {
	u.p.arb.route(arbMsg{kind: arbWake, body: depStatusPkt{task: pkt.task, vm: pkt.vm}}, u.egress(at))
}

// tryNewDep registers one dependence (flow N5). It returns stallNone on
// success, or the reason the dependence cannot be stored yet (DM set
// full or VM capacity); the caller decides whether that stalls the queue
// head or parks in the sidetrack, and does the stall accounting.
func (u *dctUnit) tryNewDep(pkt newDepPkt, now uint64) stallKind {
	st := &u.p.stats
	if ref, hit := u.dm.lookup(pkt.addr); hit {
		e := u.dm.at(ref)
		tailIdx := e.tail
		tail := u.vm.at(tailIdx)
		if pkt.dir.Writes() {
			// New producer: open a new version behind the current one.
			idx, ok := u.vm.alloc()
			if !ok {
				return stallVMFull
			}
			nv := u.vm.at(idx)
			nv.dm = ref
			nv.hasProducer = true
			nv.producer = pkt.task
			tail.hasNext = true
			tail.next = idx
			e.tail = idx
			e.count++
			e.input = false
			done := u.consume(now, u.timing.DCTNewDep)
			nv.statusAt = done + u.timing.DCTPipe
			u.sendStatus(depStatusPkt{
				task: pkt.task, depIdx: pkt.depIdx,
				vm: VMAddr{DCT: u.id, Idx: idx},
			}, done+u.timing.DCTPipe)
		} else {
			// Consumer of the newest version.
			tail.numConsumers++
			done := u.consume(now, u.timing.DCTNewDep)
			tail.statusAt = done + u.timing.DCTPipe
			status := depStatusPkt{
				task: pkt.task, depIdx: pkt.depIdx,
				vm: VMAddr{DCT: u.id, Idx: tailIdx},
			}
			if tail.producerDone {
				// The value already exists (or the chain is input-only).
				status.ready = true
			} else if u.p.cfg.Wake == WakeFirstFirst {
				// Ablation: chains point forward; the previous tail gets
				// a wake pointer to the new consumer.
				if tail.chainLen == 0 {
					tail.chainHead = pkt.task
				} else {
					u.sendStatus(depStatusPkt{
						task: tail.chainTail, vm: VMAddr{DCT: u.id, Idx: tailIdx},
						setWake: true, hasWake: true, wakeTask: pkt.task,
					}, now+u.timing.DCTPipe)
				}
				tail.chainTail = pkt.task
				tail.chainLen++
			} else {
				// Chain behind the previous last consumer: the paper's
				// dependent packet carries the wake pointer, and the new
				// consumer becomes the chain tail kept in the VM.
				if tail.chainLen > 0 {
					status.hasWake = true
					status.wakeTask = tail.chainTail
				}
				tail.chainTail = pkt.task
				tail.chainLen++
			}
			u.sendStatus(status, done+u.timing.DCTPipe)
		}
		st.DepsProcessed++
		return stallNone
	}

	// Miss: first live appearance of the address.
	if u.vm.freeCount() == 0 {
		return stallVMFull
	}
	// Probe for a free way before allocating VM so a conflict does not
	// leak a version entry.
	idx, _ := u.vm.alloc()
	ref, ok := u.dm.insert(pkt.addr, idx, !pkt.dir.Writes())
	if !ok {
		u.vm.release(idx)
		return stallDMSet
	}
	nv := u.vm.at(idx)
	nv.dm = ref
	if pkt.dir.Writes() {
		nv.hasProducer = true
		nv.producer = pkt.task
	} else {
		// Input-only so far: vacuously "produced".
		nv.producerDone = true
		nv.numConsumers = 1
	}
	done := u.consume(now, u.timing.DCTNewDep)
	nv.statusAt = done + u.timing.DCTPipe
	u.sendStatus(depStatusPkt{
		task: pkt.task, depIdx: pkt.depIdx,
		vm:    VMAddr{DCT: u.id, Idx: idx},
		ready: true,
	}, done+u.timing.DCTPipe)
	st.DepsProcessed++
	if live := u.vm.live(); live > st.MaxVMLive {
		st.MaxVMLive = live
	}
	return stallNone
}

// handleFinish releases one dependence of a finished task (F4): mark the
// producer done (waking the last consumer) or count a consumer finish;
// when the version drains, wake the next version's producer and recycle
// the entries.
func (u *dctUnit) handleFinish(pkt finishDepPkt, now uint64) {
	cost := u.timing.DCTFinDep
	leakCredit := false
	if f := u.p.cfg.Faults; f != nil {
		cost = f.ScaleDCT(int(u.id), cost)
		leakCredit = f.LeakCredit(int(u.id))
	}
	done := now + cost
	u.busyUntilFin = done
	u.busy += cost
	u.p.noteBusy(done)
	if !leakCredit {
		u.p.gw.returnCredit(u.id)
	}
	v := u.vm.at(pkt.vm.Idx)
	if !v.used {
		u.p.stats.ProtocolErrors++
		return
	}
	if v.hasProducer && !v.producerDone && v.producer == pkt.task {
		v.producerDone = true
		if v.chainLen > 0 {
			// Wake the chain: from the last consumer under the paper's
			// design (Figure 5, link 1), from the first under the
			// ablation order. The wake leaves as soon as the VM read
			// resolves the target; the recycle write-back below proceeds
			// on the engine timer (busyUntilFin) concurrently.
			entry := v.chainTail
			if u.p.cfg.Wake == WakeFirstFirst {
				entry = v.chainHead
			}
			u.sendWake(wakePkt{task: entry, vm: pkt.vm}, max(now+u.timing.DCTPipe, v.statusAt))
			u.p.stats.WakesRouted++
		}
	} else {
		v.finished++
	}
	if v.complete() {
		u.completeVersion(pkt.vm.Idx, now)
	}
}

// completeVersion recycles a drained version: advance the DM entry to the
// next version (waking its producer) or free the DM entry when this was
// the last one.
func (u *dctUnit) completeVersion(idx uint16, at uint64) {
	if u.hasParked {
		// The recycle frees a DM way or a VM entry, which may change the
		// parked dependence's answer: owe it a retry at the first cycle
		// the registration engine is free (see parkedRetryAt).
		u.parkedRetryAt = max(u.busyUntil, at)
	}
	v := u.vm.at(idx)
	e := u.dm.at(v.dm)
	if v.hasNext {
		nv := u.vm.at(v.next)
		u.sendWake(wakePkt{task: nv.producer, vm: VMAddr{DCT: u.id, Idx: v.next}}, max(at+u.timing.DCTPipe, nv.statusAt))
		u.p.stats.WakesRouted++
		e.head = v.next
		e.count--
	} else {
		u.dm.free(v.dm)
	}
	if f := u.p.cfg.Faults; f != nil && f.LeakVM(int(u.id)) {
		// Version-slot leak: the write-back that recycles this VM entry
		// is lost, so the slot stays occupied for the rest of the run —
		// capacity pressure the credit pool never sees.
		return
	}
	u.vm.release(idx)
}

// nextEvent returns the earliest cycle at which the DCT can make
// progress on its own: a release on the finish engine, a registration
// on the new-dependence engine, or an owed parked retry; noEvent when
// none is pending. A stalled head and a parked sidetrack dependence are
// otherwise excluded — their retries cannot succeed until a release (an
// event in its own right) frees space, and the stall cycles they would
// burn in between are charged by chargeStall using the recorded stall
// kinds.
func (u *dctUnit) nextEvent() uint64 {
	next := max(u.finQ.headAt(), u.busyUntilFin)
	if !u.headStalled {
		next = min(next, max(u.newDepQ.headAt(), u.busyUntil))
	}
	if u.hasParked && u.parkedRetryAt > 0 {
		next = min(next, u.parkedRetryAt)
	}
	return next
}
