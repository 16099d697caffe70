package picos

// The event horizon. Every unit (gateway, TRSs, DCTs, TS, arbiter) owns
// a slot in the flat key array p.hkey that holds its nextEvent() — the
// earliest cycle it can make progress on its own, or noEvent. As in the
// prototype, where a unit learns of new work only when one of its input
// FIFOs turns non-empty, a key moves in exactly two places:
//
//   - Step and stepDue rekey each unit they step, with a direct call to
//     its nextEvent(). Only a unit's own step pops its inputs, moves its
//     busy timers or sets its blocked and stalled flags.
//   - A push into an empty regFIFO, and every arbiter.route, lowers the
//     owner's key to max(stamp, gate), where the gate is the busy timer
//     holding that input's head (the arbiter heap has none). A push
//     behind an existing head moves nothing nextEvent() reads.
//
// Both are exact, not conservative: a FIFO is empty only when no
// stalled or blocked head sits in it (headStalled and blocked clear when
// their head leaves), so the new head always counts in full. NextEvent
// and Idle are a min-scan of the 3 + NumTRS + NumDCT keys (5 in the
// paper's build), and stepDue steps exactly the units whose key is due.
//
// Idle() rides the same keys: "no unit can ever act again" is exactly
// "no key holds a horizon", and "some unit is mid-operation" is tracked
// by maxBusy, the high-water mark over every busy timer (monotonic,
// because timers are always set to now+cost and the clock never
// rewinds).

// noEvent is the key of a unit with no self-driven future event.
const noEvent = ^uint64(0)

// rebuildHorizon (re)assigns every unit its key slot and wires each
// input FIFO to its owner's key and gating timer. All queues are empty
// at build/Reset time, so every key starts at noEvent.
func (p *Picos) rebuildHorizon() {
	n := 3 + len(p.trs) + len(p.dct)
	if cap(p.hkey) < n {
		p.hkey = make([]uint64, n)
	}
	p.hkey = p.hkey[:n]
	for i := range p.hkey {
		p.hkey[i] = noEvent
	}
	id := int32(0)
	g := p.gw
	g.hid = id
	g.newQ.wire(&p.hkey[id], &g.busyUntil)
	g.finQ.wire(&p.hkey[id], &g.busyUntilFin)
	for _, t := range p.trs {
		id++
		t.hid = id
		t.newQ.wire(&p.hkey[id], &t.busyUntil)
		t.statusQ.wire(&p.hkey[id], &t.busyUntil)
		t.wakeQ.wire(&p.hkey[id], &t.busyUntil)
		t.finTaskQ.wire(&p.hkey[id], &t.busyUntil)
	}
	for _, d := range p.dct {
		id++
		d.hid = id
		d.newDepQ.wire(&p.hkey[id], &d.busyUntil)
		d.finQ.wire(&p.hkey[id], &d.busyUntilFin)
	}
	id++
	p.ts.hid = id
	p.ts.inQ.wire(&p.hkey[id], &p.ts.busyUntil)
	id++
	p.arb.hid = id
}

// lower moves a key down to at: its unit gained an input it can consume
// at cycle at.
//
//picos:hotpath
func lower(key *uint64, at uint64) {
	*key = min(*key, at)
}

// noteBusy records a busy-timer deadline; Idle() is false until the
// clock passes the latest one.
//
//picos:hotpath
func (p *Picos) noteBusy(until uint64) {
	if until > p.maxBusy {
		p.maxBusy = until
	}
}

// horizon returns the earliest key, or noEvent when no unit has a
// self-driven future event.
//
//picos:hotpath
func (p *Picos) horizon() uint64 {
	earliest := noEvent
	for _, key := range p.hkey {
		earliest = min(earliest, key)
	}
	return earliest
}
