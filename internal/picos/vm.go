package picos

// vmEntry is one Version Memory entry: one live version of a dependence
// address, i.e. one producer together with the consumers of its value
// (Section III-D). Producer-consumer chains hang off chainTail (woken
// from the last consumer backwards through TRS TMX links); producer-
// producer chains link versions through next.
type vmEntry struct {
	used bool
	dm   dmRef // owning DM entry, for release

	// Producer side.
	hasProducer  bool
	producerDone bool
	producer     TaskHandle

	// Consumer side. numConsumers counts every registered consumer;
	// finished counts those whose finish packet arrived; chainLen counts
	// the consumers registered while the producer was still pending —
	// the ones linked into the TMX wake chain, which is entered at
	// chainTail (Figure 5).
	numConsumers uint32
	finished     uint32
	chainLen     uint32
	chainTail    TaskHandle

	// Next version of the same address, if any.
	hasNext bool
	next    uint16

	// statusAt is the visibility stamp of the newest status packet
	// emitted for this version. Wakes for the version are clamped to it:
	// the DCT cannot reference a TMX dependence entry before the status
	// that writes it has left, and the visibility-ordered arbiter would
	// otherwise deliver an earlier-stamped wake first (the registration
	// engine updates VM state at operation start but its status leaves at
	// operation end, so a release landing mid-registration can observe a
	// consumer whose status is still in the pipeline).
	statusAt uint64
}

// complete reports whether the version has fully drained: the producer
// (if any) finished and every registered consumer finished.
func (v *vmEntry) complete() bool {
	return v.producerDone && v.finished == v.numConsumers
}

// versionMemory is the VM of one DCT: a fixed pool of entries with a
// free list. 512 entries for the 8-way designs, 1024 for 16-way.
type versionMemory struct {
	entries []vmEntry
	free    []uint16
}

func newVersionMemory(capacity int) *versionMemory {
	m := &versionMemory{entries: make([]vmEntry, capacity), free: make([]uint16, 0, capacity)}
	// Hand out low indices first so tests are deterministic.
	for i := capacity - 1; i >= 0; i-- {
		m.free = append(m.free, uint16(i))
	}
	return m
}

// reset returns the memory to its just-built state in place: live
// entries are scrubbed (released ones are already zero) and the free
// list is rebuilt in the deterministic fresh order.
func (m *versionMemory) reset() {
	for i := range m.entries {
		if m.entries[i].used {
			m.entries[i] = vmEntry{}
		}
	}
	m.free = m.free[:0]
	for i := len(m.entries) - 1; i >= 0; i-- {
		m.free = append(m.free, uint16(i))
	}
}

// alloc claims a free entry, zeroed. ok is false when the VM is full —
// the memory-capacity stall the paper's deadlock discussion is about.
func (m *versionMemory) alloc() (uint16, bool) {
	if len(m.free) == 0 {
		return 0, false
	}
	idx := m.free[len(m.free)-1]
	m.free = m.free[:len(m.free)-1]
	m.entries[idx] = vmEntry{used: true}
	return idx, true
}

// release returns an entry to the free list.
func (m *versionMemory) release(idx uint16) {
	m.entries[idx] = vmEntry{}
	m.free = append(m.free, idx)
}

// at returns the entry at idx.
func (m *versionMemory) at(idx uint16) *vmEntry { return &m.entries[idx] }

// freeCount returns the number of free entries (used by GW admission
// control).
func (m *versionMemory) freeCount() int { return len(m.free) }

// live returns the number of entries in use.
func (m *versionMemory) live() int { return len(m.entries) - len(m.free) }
