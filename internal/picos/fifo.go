package picos

import "repro/internal/queue"

// regFIFO is a registered hardware FIFO: an element pushed at cycle c
// with extra latency d becomes poppable at cycle c+d (d >= 1 models the
// output register). Every inter-unit channel in the model is a regFIFO,
// which makes the per-cycle evaluation order of units irrelevant.
//
// Each FIFO is wired (rebuildHorizon) to its owner's horizon key and to
// the busy timer that gates the owner's consumption of its head: a push
// is the only way input reaches a unit from outside, so the push is
// where the owner's key learns of it (see horizon.go).
//
// The FIFO keeps its head's visibility stamp in head (noEvent when
// empty), updated on push, drop and reset, so the visibility test of
// peek and pop and every unit's nextEvent read that one field instead
// of the ring, and a consumed element is copied out of the ring once.
type regFIFO[T any] struct {
	q    queue.FIFO[stamped[T]]
	head uint64  // visibility stamp of the head element; noEvent when empty
	key  *uint64 // the owner's horizon key
	gate *uint64 // the owner's busy timer holding this FIFO's head
}

type stamped[T any] struct {
	at uint64
	v  T
}

// wire connects the FIFO to its owner's horizon key and gating timer.
// FIFOs are wired empty (rebuildHorizon runs at build and after Reset),
// so wiring also sets the empty head stamp.
func (f *regFIFO[T]) wire(key, gate *uint64) { f.key, f.gate, f.head = key, gate, noEvent }

// push enqueues v, visible at cycle `at`. A push into an empty FIFO
// gives the owner a new head, consumable at max(at, gate), and lowers
// its key there; a push behind an existing head changes nothing the
// owner's nextEvent reads. An unwired FIFO panics here: every unit
// input must feed a key.
//
//picos:hotpath
func (f *regFIFO[T]) push(v T, at uint64) {
	if f.q.Empty() {
		f.head = at
		lower(f.key, max(at, *f.gate))
	}
	f.q.Push(stamped[T]{at: at, v: v})
}

// pop removes and returns the head if it is visible at cycle now.
//
//picos:hotpath
func (f *regFIFO[T]) pop(now uint64) (v T, ok bool) {
	if v, ok = f.peek(now); ok {
		f.drop()
	}
	return v, ok
}

// peek returns the head if visible at now, without removing it: one
// copy out of the ring, which a consumer that keeps the element follows
// with drop instead of a second copy through pop.
func (f *regFIFO[T]) peek(now uint64) (v T, ok bool) {
	if f.head > now {
		return v, false
	}
	return f.q.Head().v, true
}

// drop removes the head, visible or not, and restamps the FIFO from the
// element behind it.
//
//picos:hotpath
func (f *regFIFO[T]) drop() {
	f.q.Drop()
	f.head = noEvent
	if next := f.q.Head(); next != nil {
		f.head = next.at
	}
}

// headAt returns the visibility stamp of the head element, whether or
// not it is visible yet, or noEvent when the FIFO is empty. Units pop
// strictly in order, so the head's stamp is exactly the earliest cycle
// this channel can deliver input — the quantity nextEvent() folds in.
// The stamp is kept in a field as elements come and go, so reading it
// touches no ring storage.
func (f *regFIFO[T]) headAt() uint64 { return f.head }

// reset drops all elements, keeping the backing storage and the wiring
// — the Reset path's way of recycling channel buffers.
func (f *regFIFO[T]) reset() {
	f.q.Reset()
	f.head = noEvent
}

// len returns the number of queued elements (visible or not).
func (f *regFIFO[T]) len() int { return f.q.Len() }
