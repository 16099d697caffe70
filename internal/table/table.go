// Package table is the open-addressed hash table behind the engines'
// per-task state: the dependence analysis's address index and the live
// sets of the nanos loop and the hil runner. Each is probed several times
// per simulated task, so every probe saved by skipping a Go map's
// general-purpose hashing and group metadata is saved per task.
//
// Map keys are uint64. Slots live in one power-of-two array kept at most
// half full; a key's home slot comes from Fibonacci hashing, and
// collisions probe linearly. Delete shifts the rest of the probe run
// back instead of leaving a tombstone, so the array stays sized by the
// number of live keys, never by how many keys have passed through: a
// window of live tasks streaming past one long-lived straggler needs no
// more slots than the window. Reset empties the table and keeps its
// storage. There is no iteration, so no caller can depend on an order.
package table

import "math/bits"

// minSlots is the smallest slot array a non-empty Map allocates.
const minSlots = 8

// Map is a hash table from uint64 keys to values of type V. The zero
// value is an empty map ready to use.
type Map[V any] struct {
	slots []slot[V]
	n     int
	shift uint8 // 64 - log2(len(slots))
}

type slot[V any] struct {
	key  uint64
	used bool
	val  V
}

// home returns k's first probe position: the top log2(len(slots)) bits
// of k times 2^64/φ.
func (m *Map[V]) home(k uint64) int {
	return int((k * 0x9E3779B97F4A7C15) >> m.shift)
}

// find returns the slot holding k, or the empty slot that ends k's probe
// run. The array is never full, so the probe always stops.
//
//picos:hotpath
func (m *Map[V]) find(k uint64) int {
	mask := len(m.slots) - 1
	i := m.home(k)
	for m.slots[i].used && m.slots[i].key != k {
		i = (i + 1) & mask
	}
	return i
}

// Len returns the number of keys in the map.
func (m *Map[V]) Len() int { return m.n }

// Cap returns the length of the slot array; Put grows it once Len would
// exceed half of it.
func (m *Map[V]) Cap() int { return len(m.slots) }

// Get returns the value stored under k and whether k is present.
//
//picos:hotpath
func (m *Map[V]) Get(k uint64) (V, bool) {
	if m.n == 0 {
		var zero V
		return zero, false
	}
	s := &m.slots[m.find(k)]
	return s.val, s.used
}

// Put stores v under k, replacing any earlier value. Only a new key can
// grow the slot array.
//
//picos:hotpath
func (m *Map[V]) Put(k uint64, v V) {
	if len(m.slots) == 0 {
		m.grow()
	}
	i := m.find(k)
	if !m.slots[i].used {
		if 2*(m.n+1) > len(m.slots) {
			m.grow()
			i = m.find(k)
		}
		m.slots[i].key, m.slots[i].used = k, true
		m.n++
	}
	m.slots[i].val = v
}

// Delete removes k, if present. The entries after it in its probe run
// that would no longer be reachable from their home slot move back into
// the hole, so every run stays gap-free without tombstones.
//
//picos:hotpath
func (m *Map[V]) Delete(k uint64) {
	if m.n == 0 {
		return
	}
	i := m.find(k)
	if !m.slots[i].used {
		return
	}
	m.n--
	mask := len(m.slots) - 1
	for j := (i + 1) & mask; m.slots[j].used; j = (j + 1) & mask {
		// The entry at j may fill the hole at i only if its home does
		// not lie cyclically within (i, j].
		if (j-m.home(m.slots[j].key))&mask >= (j-i)&mask {
			m.slots[i] = m.slots[j]
			i = j
		}
	}
	m.slots[i] = slot[V]{}
}

// Reset removes every key and keeps the slot array.
func (m *Map[V]) Reset() {
	if m.n > 0 {
		clear(m.slots)
		m.n = 0
	}
}

// grow doubles the slot array (or allocates the first one) and
// reinserts every entry.
func (m *Map[V]) grow() {
	old := m.slots
	size := max(minSlots, 2*len(old))
	m.slots = make([]slot[V], size)
	m.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	for i := range old {
		if old[i].used {
			m.slots[m.find(old[i].key)] = old[i]
		}
	}
}
