package picos

import (
	"testing"

	"repro/internal/pearson"
)

func TestRegFIFOVisibility(t *testing.T) {
	var q regFIFO[int]
	key, gate := noEvent, uint64(6)
	q.wire(&key, &gate)
	// The cached head stamp must follow the ring's head through every
	// push, pop and reset.
	checkHead := func(after string) {
		t.Helper()
		want := noEvent
		if h := q.q.Head(); h != nil {
			want = h.at
		}
		if q.headAt() != want {
			t.Fatalf("after %s: head stamp %d, ring head %d", after, q.headAt(), want)
		}
	}
	checkHead("wire")
	q.push(7, 5)
	checkHead("push")
	if key != 6 {
		t.Fatalf("a push into an empty FIFO set the key to %d, want max(stamp 5, gate 6)", key)
	}
	if _, ok := q.pop(4); ok {
		t.Fatal("element visible before its cycle")
	}
	checkHead("early pop")
	if v, ok := q.pop(5); !ok || v != 7 {
		t.Fatalf("pop(5) = %d,%v", v, ok)
	}
	checkHead("pop")
	// Order preserved even with equal stamps.
	q.push(1, 10)
	q.push(2, 10)
	checkHead("push")
	if v, _ := q.pop(10); v != 1 {
		t.Fatal("FIFO order violated")
	}
	checkHead("pop")
	if v, ok := q.peek(10); !ok || v != 2 {
		t.Fatalf("peek = %d,%v", v, ok)
	}
	if q.len() != 1 {
		t.Fatal("len wrong")
	}
	q.reset()
	checkHead("reset")
	// A long interleaving that grows and wraps the ring: pops return the
	// pushes in order, each at its own stamp.
	var pending []stamped[int]
	now := uint64(0)
	for i := 0; i < 2000; i++ {
		switch {
		case i%7 < 4:
			at := now + uint64(i%5)
			q.push(i, at)
			pending = append(pending, stamped[int]{at: at, v: i})
			checkHead("push")
		case i%300 == 299:
			q.reset()
			pending = pending[:0]
			checkHead("reset")
		default:
			v, ok := q.pop(now)
			if want := len(pending) > 0 && pending[0].at <= now; ok != want || ok && v != pending[0].v {
				t.Fatalf("pop(%d) = %d,%v; want head %v", now, v, ok, pending)
			}
			if ok {
				pending = pending[1:]
			}
			checkHead("pop")
		}
		now += uint64(i % 2)
	}
}

func TestDMDesignGeometry(t *testing.T) {
	if DM8Way.Ways() != 8 || DM16Way.Ways() != 16 || DMP8Way.Ways() != 8 {
		t.Fatal("way counts wrong")
	}
	if DM8Way.Capacity() != 512 || DM16Way.Capacity() != 1024 || DMP8Way.Capacity() != 512 {
		t.Fatal("capacities wrong (paper: VM 512 for 8-way designs, 1024 for 16-way)")
	}
}

func TestDepMemoryIndexing(t *testing.T) {
	direct := newDepMemory(DM8Way, dmSets)
	p8 := newDepMemory(DMP8Way, dmSets)
	addr := uint64(0xABCD40)
	if direct.index(addr) != int((addr>>2)&63) {
		t.Fatal("direct index must be addr[7:2] (the 32-bit-word address low 6 bits)")
	}
	if p8.index(addr) != pearson.Index64(addr) {
		t.Fatal("P+8way index must be the Pearson fold")
	}
}

func TestDepMemoryInsertLookupFree(t *testing.T) {
	m := newDepMemory(DM8Way, dmSets)
	// Fill one set with 8 aligned addresses: stride 256 keeps the
	// word-address index bits [7:2] identical.
	refs := make([]dmRef, 8)
	for i := 0; i < 8; i++ {
		addr := uint64(0x1000 + i*256)
		ref, ok := m.insert(addr, uint16(i), false)
		if !ok {
			t.Fatalf("insert %d rejected before set full", i)
		}
		refs[i] = ref
	}
	if _, ok := m.insert(0x1000+8*256, 8, false); ok {
		t.Fatal("9th insert into a full 8-way set succeeded")
	}
	// Lookup finds entries; priorities: way 0 first.
	if ref, ok := m.lookup(0x1000); !ok || ref.way != 0 {
		t.Fatalf("lookup = %+v, %v", ref, ok)
	}
	if m.live() != 8 {
		t.Fatalf("live = %d", m.live())
	}
	// Free way 3 and reinsert: must land in way 3 (first free way).
	m.free(refs[3])
	ref, ok := m.insert(0x9000, 99, true)
	if !ok || ref.way != 3 {
		t.Fatalf("reinsert = %+v, %v; want way 3", ref, ok)
	}
	e := m.at(ref)
	if tag := m.tags[int(ref.set)*m.ways+int(ref.way)]; !e.input || tag != 0x9000 || e.head != 99 || e.tail != 99 || e.count != 1 {
		t.Fatalf("entry state %+v, tag %#x", e, tag)
	}
}

func TestVersionMemoryLifecycle(t *testing.T) {
	m := newVersionMemory(4)
	if m.freeCount() != 4 || m.live() != 0 {
		t.Fatal("fresh VM state wrong")
	}
	idxs := make([]uint16, 4)
	for i := range idxs {
		idx, ok := m.alloc()
		if !ok {
			t.Fatalf("alloc %d failed", i)
		}
		idxs[i] = idx
		if !m.at(idx).used {
			t.Fatal("allocated entry not marked used")
		}
	}
	if _, ok := m.alloc(); ok {
		t.Fatal("alloc beyond capacity succeeded")
	}
	m.release(idxs[1])
	if m.freeCount() != 1 || m.live() != 3 {
		t.Fatalf("free=%d live=%d after release", m.freeCount(), m.live())
	}
	idx, ok := m.alloc()
	if !ok || idx != idxs[1] {
		t.Fatalf("realloc = %d,%v; want recycled %d", idx, ok, idxs[1])
	}
}

func TestVMEntryComplete(t *testing.T) {
	v := vmEntry{used: true, hasProducer: true}
	if v.complete() {
		t.Fatal("incomplete producer reported complete")
	}
	v.producerDone = true
	if !v.complete() {
		t.Fatal("producer-only version with no consumers should be complete")
	}
	v.numConsumers = 2
	if v.complete() {
		t.Fatal("unfinished consumers reported complete")
	}
	v.finished = 2
	if !v.complete() {
		t.Fatal("drained version not complete")
	}
}

func TestTaskMemoryLifecycle(t *testing.T) {
	m := newTaskMemory()
	if m.freeCount() != tmSlots {
		t.Fatalf("fresh TM free = %d", m.freeCount())
	}
	slots := map[uint16]bool{}
	for i := 0; i < tmSlots; i++ {
		s, ok := m.alloc()
		if !ok {
			t.Fatalf("alloc %d failed", i)
		}
		if slots[s] {
			t.Fatalf("slot %d handed out twice", s)
		}
		slots[s] = true
	}
	if _, ok := m.alloc(); ok {
		t.Fatal("alloc beyond 256 slots succeeded")
	}
	m.release(7)
	if m.live() != tmSlots-1 {
		t.Fatalf("live = %d", m.live())
	}
}

func TestFindDepByVM(t *testing.T) {
	e := tmEntry{used: true, numDeps: 3}
	e.deps[0] = tmDep{registered: true, vm: VMAddr{DCT: 0, Idx: 5}}
	e.deps[1] = tmDep{registered: true, vm: VMAddr{DCT: 1, Idx: 5}}
	e.deps[2] = tmDep{registered: false, vm: VMAddr{DCT: 0, Idx: 9}}
	if i, ok := e.findDepByVM(VMAddr{DCT: 1, Idx: 5}); !ok || i != 1 {
		t.Fatalf("findDepByVM = %d,%v", i, ok)
	}
	// Unregistered entries must not match.
	if _, ok := e.findDepByVM(VMAddr{DCT: 0, Idx: 9}); ok {
		t.Fatal("matched an unregistered dependence")
	}
	if _, ok := e.findDepByVM(VMAddr{DCT: 3, Idx: 1}); ok {
		t.Fatal("matched a nonexistent dependence")
	}
}

func TestDCTPartitioningStable(t *testing.T) {
	p, err := New(Config{NumDCT: 4})
	if err != nil {
		t.Fatal(err)
	}
	for addr := uint64(0); addr < 4096; addr += 37 {
		a := p.dctOf(addr)
		b := p.dctOf(addr)
		if a != b {
			t.Fatal("dctOf not deterministic")
		}
		if a < 0 || a >= 4 {
			t.Fatalf("dctOf out of range: %d", a)
		}
	}
	// Reasonable spread across instances.
	counts := make([]int, 4)
	for i := 0; i < 1000; i++ {
		counts[p.dctOf(uint64(i)*131072+0x10000000)]++
	}
	for i, c := range counts {
		if c < 100 {
			t.Fatalf("DCT %d got only %d of 1000 addresses", i, c)
		}
	}
}
