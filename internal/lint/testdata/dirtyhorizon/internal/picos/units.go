// Package picos is a miniature of the real accelerator package: units
// with horizon ids, registered FIFOs and busy timers, for exercising
// the dirtyhorizon analyzer.
package picos

type fifo struct{ items []int }

func (f *fifo) push(v int) { f.items = append(f.items, v) }
func (f *fifo) pop() int {
	v := f.items[0]
	f.items = f.items[1:]
	return v
}

// unit is a horizon-managed unit: it has an hid slot in the horizon.
type unit struct {
	hid       int32
	inQ       fifo
	busyUntil uint64
	p         *core
}

// helper is NOT a unit — no hid field — so its mutations are invisible
// to the horizon and must not be flagged.
type helper struct {
	inQ     fifo
	pending uint64
}

type core struct {
	u     *unit
	h     *helper
	hkeys []uint64
}

func (p *core) markDirty(id int32) { p.hkeys[id] = 0 }

// goodStep mutates the unit and marks it dirty: clean.
func (p *core) goodStep(now uint64) {
	p.u.inQ.push(int(now))
	p.u.busyUntil = now + 3
	p.markDirty(p.u.hid)
}

// badStep mutates the unit without marking it dirty: both the FIFO push
// and the busy-timer write are findings.
func (p *core) badStep(now uint64) {
	p.u.inQ.push(int(now))  // want `badStep calls p\.u\.inQ\.push without marking the unit dirty`
	p.u.busyUntil = now + 3 // want `badStep assigns p\.u\.busyUntil without marking the unit dirty`
}

// helperStep mutates the non-unit helper: clean (no hid, no horizon).
func (p *core) helperStep(now uint64) {
	p.h.inQ.push(int(now))
	p.h.pending = now
}

// consume is the helper idiom: the mutation and the markDirty live
// together in a sibling method.
func (u *unit) consume(now uint64) {
	u.busyUntil = now + 5
	u.p.markDirty(u.hid)
}

// step is clean transitively: it mutates u but calls consume, which
// marks the same receiver dirty.
func (u *unit) step(now uint64) {
	u.inQ.push(int(now))
	u.consume(now)
}

// reset mutates without marking: exempt by name (always followed by
// rebuildHorizon in the real machine).
func (u *unit) reset() {
	u.busyUntil = 0
	u.inQ.items = u.inQ.items[:0]
}

// parkRetry carries a justified suppression.
func (u *unit) parkRetry(now uint64) {
	//lint:ignore dirtyhorizon the caller re-polls this unit unconditionally every evaluated cycle
	u.busyUntil = now + 1
}
