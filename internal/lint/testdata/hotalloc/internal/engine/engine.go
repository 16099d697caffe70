// Package engine exercises the hotalloc analyzer: functions annotated
// //picos:hotpath may not contain allocating constructs.
package engine

import "fmt"

type event struct {
	at uint64
	id int
}

type machine struct {
	queue   []event
	scratch event
	sink    any
	index   map[uint64]int
}

//picos:hotpath
func (m *machine) badStep(now uint64) {
	e := &event{at: now} // want `takes the address of a composite literal`
	_ = e
	ids := []int{1, 2, 3} // want `builds a slice literal`
	_ = ids
	lookup := map[int]uint64{1: now} // want `builds a map literal`
	_ = lookup
	p := new(event) // want `calls new\(\.\.\.\)`
	_ = p
	fmt.Printf("step %d\n", now)      // want `calls fmt\.Printf`
	f := func() uint64 { return now } // want `declares a func literal`
	_ = f
	m.sink = now               // want `boxes a uint64 into an interface`
	m.index[now] = 1           // want `writes through a map index`
	m.index[now] += 2          // want `writes through a map index`
	m.index[now]++             // want `writes through a map index`
	(m.index)[now+1], _ = 3, 4 // want `writes through a map index`
}

//picos:hotpath
func (m *machine) goodStep(now uint64) {
	// Value literals copy into storage the machine already owns.
	m.scratch = event{at: now, id: 1}
	// Append into a preallocated queue does not inherently allocate.
	m.queue = append(m.queue, m.scratch)
	// Pointers box without copying: the pointer word fits the slot.
	m.sink = &m.scratch
	// Zeroing with an empty literal is a clear, allocation-free reset.
	m.scratch = event{}
	// Reading a map never grows it.
	m.scratch.id = m.index[now]
}

// coldStep is unannotated: the same constructs are fine off the hot
// path, so none of this may be flagged.
func (m *machine) coldStep(now uint64) {
	e := &event{at: now}
	fmt.Printf("cold %d\n", e.at)
	m.sink = now
}

//picos:hotpath
func (m *machine) suppressedStep(now uint64) {
	//lint:ignore hotalloc wedge diagnostics only; the run is already over when this executes
	fmt.Printf("wedged at %d\n", now)
}
