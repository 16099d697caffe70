package table

import (
	"encoding/binary"
	"testing"
)

// checkInvariants verifies the linear-probing layout: the live count
// matches the used slots, the array is at most half full, and no empty
// slot lies between any entry and its home (which Get relies on to stop
// at the first empty slot).
func checkInvariants[V any](t *testing.T, m *Map[V]) {
	t.Helper()
	used := 0
	mask := len(m.slots) - 1
	for j, s := range m.slots {
		if !s.used {
			continue
		}
		used++
		for i := m.home(s.key); i != j; i = (i + 1) & mask {
			if !m.slots[i].used {
				t.Fatalf("key %#x at slot %d: empty slot %d between it and its home %d", s.key, j, i, m.home(s.key))
			}
		}
	}
	if used != m.n {
		t.Fatalf("Len %d, but %d slots are used", m.n, used)
	}
	if 2*m.n > len(m.slots) {
		t.Fatalf("%d keys in %d slots: more than half full", m.n, len(m.slots))
	}
}

// FuzzMap drives a Map and a Go map with the same operations and checks
// that they agree after every one. Each operation is three bytes: an
// opcode and a key offset from a base the input's first byte picks.
// Keys fall in a window of 512, so they collide in small arrays and
// their probe runs wrap past the end of the slot array.
func FuzzMap(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 0, 2, 0, 0, 3, 0, 0, 2, 1, 0, 4, 0, 0})
	f.Add([]byte{7, 0, 0, 9, 0, 1, 9, 0, 2, 9, 0, 3, 9, 2, 1, 9, 2, 2, 9, 3, 0, 0, 4, 0, 0, 0, 1, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		base := uint64(ops[0]) << 56
		var m Map[uint32]
		ref := map[uint64]uint32{}
		for i := 1; i+2 < len(ops); i += 3 {
			k := base + uint64(binary.LittleEndian.Uint16(ops[i+1:])&511)
			v := uint32(i)
			switch ops[i] % 6 {
			case 0, 1:
				_, had := ref[k]
				c := m.Cap()
				m.Put(k, v)
				ref[k] = v
				if had && m.Cap() != c {
					t.Fatalf("Put(%#x) over a present key grew the array from %d to %d slots", k, c, m.Cap())
				}
			case 2:
				m.Delete(k)
				delete(ref, k)
			case 3:
				got, ok := m.Get(k)
				want, wok := ref[k]
				if got != want || ok != wok {
					t.Fatalf("Get(%#x) = %d, %v; want %d, %v", k, got, ok, want, wok)
				}
			case 4:
				if ops[i+1] == 0 {
					m.Reset()
					clear(ref)
				}
			case 5:
				if m.Len() != len(ref) {
					t.Fatalf("Len %d, want %d", m.Len(), len(ref))
				}
			}
			checkInvariants(t, &m)
		}
		for k, want := range ref {
			if got, ok := m.Get(k); !ok || got != want {
				t.Fatalf("Get(%#x) = %d, %v; want %d, true", k, got, ok, want)
			}
		}
	})
}

// TestMapCapacityFollowsLive pins one key while 10^5 sequential keys
// stream past it with at most 8 live at once: capacity follows the live
// count, not the span of keys seen.
func TestMapCapacityFollowsLive(t *testing.T) {
	const pinned = 1 << 40
	var m Map[uint64]
	m.Put(pinned, 7)
	for k := uint64(1); k <= 100_000; k++ {
		m.Put(k, k)
		if k > 7 {
			m.Delete(k - 7)
		}
		if m.Len() > 8 {
			t.Fatalf("key %d: %d live", k, m.Len())
		}
		if m.Cap() > 32 {
			t.Fatalf("key %d: capacity %d with %d live", k, m.Cap(), m.Len())
		}
	}
	if v, ok := m.Get(pinned); !ok || v != 7 {
		t.Fatalf("pinned key lost: %d, %v", v, ok)
	}
	checkInvariants(t, &m)
}
