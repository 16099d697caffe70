package picos

import (
	"encoding/binary"
	"testing"

	"repro/internal/pearson"
)

// refWay is one way of refDM.
type refWay struct {
	valid bool
	tag   uint64
	e     dmEntry
}

// refDM is the plain model FuzzDepMemory checks depMemory against: a
// slice of ways per set, the lowest free way taken first, a full set a
// conflict, and its own set index.
type refDM struct {
	design  DMDesign
	numSets int
	sets    [][]refWay
}

func newRefDM(design DMDesign, numSets int) *refDM {
	r := &refDM{design: design, numSets: numSets, sets: make([][]refWay, numSets)}
	for s := range r.sets {
		r.sets[s] = make([]refWay, design.Ways())
	}
	return r
}

func (r *refDM) index(addr uint64) int {
	if r.design == DMP8Way {
		return pearson.Index64(addr) % r.numSets
	}
	return int(addr>>2&63) % r.numSets
}

func (r *refDM) lookup(addr uint64) (int, int, bool) {
	s := r.index(addr)
	for w, way := range r.sets[s] {
		if way.valid && way.tag == addr {
			return s, w, true
		}
	}
	return 0, 0, false
}

func (r *refDM) insert(addr uint64, head uint16, input bool) (int, int, bool) {
	s := r.index(addr)
	for w := range r.sets[s] {
		if !r.sets[s][w].valid {
			r.sets[s][w] = refWay{valid: true, tag: addr, e: dmEntry{input: input, head: head, tail: head, count: 1}}
			return s, w, true
		}
	}
	return 0, 0, false
}

func (r *refDM) live() int {
	n := 0
	for _, set := range r.sets {
		for _, way := range set {
			if way.valid {
				n++
			}
		}
	}
	return n
}

// FuzzDepMemory runs random sequences of insert, lookup, entry update,
// free and reset on the tag-row depMemory and on refDM, for every design
// and every shard partition of the 64 sets (64, 32, 16 and 8 sets per
// shard). After every operation both must agree on the refs, hits,
// live() and every valid entry's fields. The first byte picks the
// design and partition; each following 3-byte group is one operation on
// one of 1024 word addresses per 40-bit tag prefix, so sets fill and
// conflict. Checked-in seeds live in testdata/fuzz/FuzzDepMemory.
func FuzzDepMemory(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 0, 0, 1, 0, 64, 0, 0, 128, 0, 2, 0, 0, 3, 0, 0})
	f.Add([]byte{5, 0, 7, 0, 0, 7, 4, 1, 7, 8, 4, 2, 0, 0, 3, 0, 1, 2, 5, 9, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		design := DMDesign(ops[0] % 3)
		numSets := dmSets >> (ops[0] / 3 % 4)
		m := newDepMemory(design, numSets)
		ref := newRefDM(design, numSets)
		ways := design.Ways()
		for i := 1; i+2 < len(ops); i += 3 {
			arg := binary.LittleEndian.Uint16(ops[i+1:])
			addr := uint64(arg&1023)<<2 | uint64(arg>>10)<<40
			set, way := int(ops[i+1])%numSets, int(ops[i+2])%ways
			switch ops[i] % 6 {
			case 0, 1: // insert after a missed lookup, as the DCT does
				if _, _, hit := ref.lookup(addr); hit {
					break
				}
				got, ok := m.insert(addr, arg, ops[i]&8 != 0)
				s, w, wok := ref.insert(addr, arg, ops[i]&8 != 0)
				if ok != wok || ok && (int(got.set) != s || int(got.way) != w) {
					t.Fatalf("insert(%#x) = %+v, %v; want set %d way %d, %v", addr, got, ok, s, w, wok)
				}
			case 2:
				got, hit := m.lookup(addr)
				s, w, whit := ref.lookup(addr)
				if hit != whit || hit && (int(got.set) != s || int(got.way) != w) {
					t.Fatalf("lookup(%#x) = %+v, %v; want set %d way %d, %v", addr, got, hit, s, w, whit)
				}
			case 3:
				if rw := &ref.sets[set][way]; rw.valid {
					m.free(dmRef{uint8(set), uint8(way)})
					*rw = refWay{}
				}
			case 4: // the DCT's writes to a live entry
				if rw := &ref.sets[set][way]; rw.valid {
					e := m.at(dmRef{uint8(set), uint8(way)})
					e.tail, e.count, e.input = arg, e.count+1, !e.input
					rw.e.tail, rw.e.count, rw.e.input = arg, rw.e.count+1, !rw.e.input
				}
			case 5:
				if ops[i+1] < 16 {
					m.reset()
					ref = newRefDM(design, numSets)
				}
			}
			if got, want := m.live(), ref.live(); got != want {
				t.Fatalf("op %d: live() = %d, want %d", i/3, got, want)
			}
			for s, row := range ref.sets {
				for w, rw := range row {
					if !rw.valid {
						continue
					}
					r, hit := m.lookup(rw.tag)
					if !hit || int(r.set) != s || int(r.way) != w {
						t.Fatalf("op %d: lookup(%#x) = %+v, %v; want set %d way %d", i/3, rw.tag, r, hit, s, w)
					}
					if e := *m.at(r); e != rw.e {
						t.Fatalf("op %d: entry at set %d way %d = %+v, want %+v", i/3, s, w, e, rw.e)
					}
				}
			}
		}
	})
}
