package picos

// The incremental event horizon. Every unit (gateway, TRSs, DCTs, TS,
// arbiter) owns a slot in a flat key array holding its nextEvent()
// horizon — the earliest cycle it can make progress on its own. Keys are
// refreshed lazily: any state change that can move a horizon (a queue
// push, a pop, a busy-timer update, a blocked/stalled transition) marks
// the unit dirty, and the next NextEvent/Idle call re-polls just the
// dirty units before scanning the keys for the minimum. The machine has
// 3 + NumTRS + NumDCT units (5 in the paper's build), so a linear scan
// of the keys is cheaper than keeping them in a heap: planning a wake
// costs one nextEvent() per dirty unit plus one pass over a few words.
//
// Idle() rides the same keys: "no unit can ever act again" is exactly
// "no key holds a horizon", and "some unit is mid-operation" is tracked
// by maxBusy, the high-water mark over every busy timer (monotonic,
// because timers are always set to now+cost and the clock never
// rewinds).

// horizonUnit is the per-unit polling surface of the scheduler.
type horizonUnit interface {
	// nextEvent returns the earliest cycle the unit can make progress
	// without external input; ok is false when it never will (blocked or
	// stalled heads excluded, as documented on each implementation).
	nextEvent() (uint64, bool)
}

// noEvent is the key of a unit with no self-driven future event.
const noEvent = ^uint64(0)

// rebuildHorizon (re)derives the keys from the current unit set: all
// queues are empty at build/Reset time, so every key starts at noEvent.
func (p *Picos) rebuildHorizon() {
	p.units = p.units[:0]
	add := func(u horizonUnit) int32 {
		id := int32(len(p.units))
		p.units = append(p.units, u)
		return id
	}
	p.gw.hid = add(p.gw)
	for _, t := range p.trs {
		t.hid = add(t)
	}
	for _, d := range p.dct {
		d.hid = add(d)
	}
	p.ts.hid = add(p.ts)
	p.arb.hid = add(p.arb)

	n := len(p.units)
	if cap(p.hkey) < n {
		p.hkey = make([]uint64, n)
		p.hdirty = make([]bool, n)
		p.hdlist = make([]int32, 0, n)
	} else {
		p.hkey = p.hkey[:n]
		p.hdirty = p.hdirty[:n]
	}
	for i := 0; i < n; i++ {
		p.hkey[i] = noEvent
		p.hdirty[i] = false
	}
	p.hdlist = p.hdlist[:0]
}

// markDirty schedules a unit for re-polling at the next horizon read.
//
//picos:hotpath
func (p *Picos) markDirty(id int32) {
	if !p.hdirty[id] {
		p.hdirty[id] = true
		p.hdlist = append(p.hdlist, id)
	}
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

// horizon re-polls every dirty unit and returns the earliest key, or
// noEvent when no unit has a self-driven future event.
//
//picos:hotpath
func (p *Picos) horizon() uint64 {
	for _, id := range p.hdlist {
		p.hdirty[id] = false
		key := noEvent
		if at, ok := p.units[id].nextEvent(); ok {
			key = at
		}
		p.hkey[id] = key
	}
	p.hdlist = p.hdlist[:0]
	earliest := noEvent
	for _, key := range p.hkey {
		earliest = min(earliest, key)
	}
	return earliest
}
