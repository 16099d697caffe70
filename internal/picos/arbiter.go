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
		switch m.kind {
		case arbStat:
			t := a.p.trs[m.stat.task.TRS]
			t.statusQ.push(m.stat, at)
		case arbWake:
			t := a.p.trs[m.wake.task.TRS]
			t.wakeQ.push(m.wake, at)
		case arbFin:
			// DCT-bound traffic pays the destination shard's chain
			// distance on top of the arbiter hop (shard 0 is adjacent).
			d := a.p.dct[m.fin.vm.DCT]
			d.finQ.push(m.fin, at+uint64(m.fin.vm.DCT)*a.timing.ShardHop)
		case arbNewDep:
			shard := a.p.dctOf(m.dep.addr)
			d := a.p.dct[shard]
			d.newDepQ.push(m.dep, at+uint64(shard)*a.timing.ShardHop)
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
// same-cycle sends route exactly as the pre-heap FIFO did. Storage is
// reused across resets.
type arbHeap struct {
	h   []arbEntry
	seq uint64
}

func (q *arbHeap) less(i, j int) bool {
	if q.h[i].at != q.h[j].at {
		return q.h[i].at < q.h[j].at
	}
	return q.h[i].seq < q.h[j].seq
}

//picos:hotpath
func (q *arbHeap) push(m arbMsg, at uint64) {
	q.h = append(q.h, arbEntry{at: at, seq: q.seq, m: m})
	q.seq++
	i := len(q.h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
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
	last := len(q.h) - 1
	q.h[0] = q.h[last]
	q.h[last] = arbEntry{}
	q.h = q.h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(q.h) && q.less(l, smallest) {
			smallest = l
		}
		if r < len(q.h) && q.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		q.h[i], q.h[smallest] = q.h[smallest], q.h[i]
		i = smallest
	}
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
	clear(q.h)
	q.h = q.h[:0]
	q.seq = 0
}
