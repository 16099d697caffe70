package picos

// arbiter routes messages between TRSs and DCTs (and TRS-to-TRS chain
// wakes, which the paper notes are "managed by the Arbiter module"). It
// forwards a bounded number of messages per cycle, adding one hop of
// latency, so long wake chains pay per-link routing time exactly like
// the prototype.
//
// Routing is visibility-ordered: the crossbar grants whichever message
// is ready this cycle, not the one whose producing engine happened to
// issue its send first. Messages therefore queue on (visibility stamp,
// issue order) — a status still inside a DCT's 16-cycle registration
// pipeline cannot head-of-line block a release or wake that is already
// on the wire. Engines do not emit in stamp order: one DCT interleaves
// registration statuses, stamped at the end of its registration
// pipeline, with release wakes, stamped a pipe after the release but
// never before the status of the version they wake (the statusAt clamp
// in dct.go), so even its wakes alone can invert. The order the
// protocol needs — a status ahead of every wake of its version — is
// carried by those stamps; equal stamps keep their send order.
// (The pre-fix strict-FIFO arbiter was the main reason the Table IV
// case4 chain round trip over-measured: each link's finish and wake
// packets waited out an unrelated in-flight registration status.)
type arbiter struct {
	p      *Picos
	timing *Timing
	in     arbHeap
	routed uint64
	hid    int32 // horizon key slot
}

func newArbiter(p *Picos) *arbiter {
	return &arbiter{p: p, timing: &p.cfg.Timing}
}

// reset scrubs the arbiter back to its just-built state.
func (a *arbiter) reset() {
	a.in.reset()
	a.routed = 0
}

// route accepts a message that becomes routable at cycle `at`. It is
// the arbiter's only input, and the heap orders messages by stamp, so
// every route can move the head and lowers the key to at (the arbiter
// has no busy timer gating it).
func (a *arbiter) route(m arbMsg, at uint64) {
	a.in.push(m, at)
	lower(&a.p.hkey[a.hid], at)
}

func (a *arbiter) step(now uint64) {
	for i := 0; i < a.timing.ArbBandwidth; i++ {
		m, ok := a.in.pop(now)
		if !ok {
			return
		}
		a.routed++
		at := now + a.timing.ArbHop
		if f := a.p.cfg.Faults; f != nil {
			// arb:stall — a one-shot crossbar hiccup deferring the message
			// being routed (and, through per-flow ordering, what follows
			// it on the same flow).
			at += f.ArbStallDelay(now)
		}
		switch b := &m.body; m.kind {
		case arbStat:
			a.p.trs[b.task.TRS].statusQ.push(*b, at)
		case arbWake:
			a.p.trs[b.task.TRS].wakeQ.push(wakePkt{task: b.task, vm: b.vm}, at)
		case arbFin:
			// DCT-bound traffic pays the destination shard's chain
			// distance on top of the arbiter hop (shard 0 is adjacent).
			shard := b.vm.DCT
			a.p.dct[shard].finQ.push(finishDepPkt{task: b.task, vm: b.vm}, at+uint64(shard)*a.timing.ShardHop)
		case arbNewDep:
			shard := a.p.dctOf(m.addr)
			pkt := newDepPkt{addr: m.addr, task: b.task, depIdx: b.depIdx, dir: m.dir}
			a.p.dct[shard].newDepQ.push(pkt, at+uint64(shard)*a.timing.ShardHop)
		}
	}
}

// nextEvent returns the earliest cycle at which the arbiter can route
// its next message (it has no busy timer — only message visibility gates
// it), or noEvent.
func (a *arbiter) nextEvent() uint64 { return a.in.headAt() }

// arbEntry is one queued message of the visibility-ordered arbiter.
type arbEntry struct {
	at  uint64 // visibility stamp: earliest cycle the message can route
	seq uint64 // issue order, the tie-break for equal stamps
	m   arbMsg
}

// arbHeap is a binary min-heap of messages keyed (at, seq): the head is
// the earliest-visible message, with ties resolved in issue order so
// same-cycle sends route exactly as the pre-heap FIFO did. The keys are
// unique, so the pop order is fixed whatever the heap's layout; sifts
// move a hole and write the moving entry once. Storage is reused across
// resets.
type arbHeap struct {
	h   []arbEntry
	seq uint64
}

// before reports whether e routes ahead of o.
func (e *arbEntry) before(o *arbEntry) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

//picos:hotpath
func (q *arbHeap) push(m arbMsg, at uint64) {
	e := arbEntry{at: at, seq: q.seq, m: m}
	q.seq++
	q.h = append(q.h, e)
	i := len(q.h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&q.h[parent]) {
			break
		}
		q.h[i] = q.h[parent]
		i = parent
	}
	q.h[i] = e
}

// pop removes and returns the earliest-visible message if its stamp has
// been reached at cycle now.
//
//picos:hotpath
func (q *arbHeap) pop(now uint64) (arbMsg, bool) {
	if len(q.h) == 0 || q.h[0].at > now {
		return arbMsg{}, false
	}
	m := q.h[0].m
	n := len(q.h) - 1
	last := q.h[n]
	q.h = q.h[:n]
	if n == 0 {
		return m, true
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q.h[r].before(&q.h[c]) {
			c = r
		}
		if !q.h[c].before(&last) {
			break
		}
		q.h[i] = q.h[c]
		i = c
	}
	q.h[i] = last
	return m, true
}

// headAt returns the earliest visibility stamp over all queued
// messages, or noEvent when none is queued.
func (q *arbHeap) headAt() uint64 {
	if len(q.h) == 0 {
		return noEvent
	}
	return q.h[0].at
}

// reset drops all messages and restarts issue numbering, keeping the
// backing storage.
func (q *arbHeap) reset() {
	q.h = q.h[:0]
	q.seq = 0
}
