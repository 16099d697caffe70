package picos

import (
	"fmt"
	"math/bits"

	"repro/internal/pearson"
)

// DMDesign selects one of the three Dependence Memory designs evaluated
// in Section III-C / V-A of the paper.
type DMDesign uint8

const (
	// DMP8Way keeps 8 ways but indexes with the XOR of Pearson-hashed
	// address bytes, spreading clustered block addresses across sets.
	// It is the paper's "most balanced design" and the zero value, so an
	// unconfigured accelerator gets the shipping configuration.
	DMP8Way DMDesign = iota
	// DM8Way is a 64-set, 8-way cache-like memory indexed by the low 6
	// bits of the dependence address ("direct hash").
	DM8Way
	// DM16Way doubles the associativity (and the VM) of DM8Way.
	DM16Way
)

// String returns the paper's name for the design.
func (d DMDesign) String() string {
	switch d {
	case DM8Way:
		return "DM 8way"
	case DM16Way:
		return "DM 16way"
	case DMP8Way:
		return "DM P+8way"
	default:
		return fmt.Sprintf("DMDesign(%d)", uint8(d))
	}
}

// Designs lists all three DM designs in paper order.
var Designs = []DMDesign{DM8Way, DM16Way, DMP8Way}

// dmSets is the number of sets ("64 entries" accessed by a 6-bit index,
// Figure 4) in every design.
const dmSets = 64

// Ways returns the associativity of the design.
func (d DMDesign) Ways() int {
	if d == DM16Way {
		return 16
	}
	return 8
}

// Capacity returns the total number of DM entries (sets x ways), which
// also sizes the Version Memory: 512 entries for the 8-way designs, 1024
// for the 16-way one ("the corresponding VM is also doubled from 512 to
// 1024 entries to keep it coherent with the DM size").
func (d DMDesign) Capacity() int { return dmSets * d.Ways() }

// dmEntry is one way of the Dependence Memory besides its tag: the
// head/tail of the address's version chain in the VM and the number of
// live versions (the paper's "counters for dependences that have the
// same address"). Validity and the tag live in the set's row (depMemory).
type dmEntry struct {
	input bool   // all accesses so far are inputs (paper's I bit)
	head  uint16 // VM index of the oldest live version
	tail  uint16 // VM index of the newest version
	count uint16 // live versions
}

// dmRef locates a DM entry: at most 64 sets of at most 16 ways.
type dmRef struct {
	set, way uint8
}

// depMemory is the cache-like address-matching store of a DCT. A
// single-DCT build owns all dmSets sets; a sharded fabric hands each
// shard its partition of them (numSets = shardSets(NumDCT)), so the
// fabric's total capacity stays the design's.
//
// It is laid out the way Figure 4 compares: per set, a bitmask of the
// valid ways and a row of one tag per way (set s owns
// tags[s*ways:(s+1)*ways], 64 bytes for 8 ways), and beside them a flat
// array of the entries, indexed like the tags. A lookup walks the valid
// bits over one row of tags; an insert takes the lowest clear bit, so
// way 0 keeps the highest priority.
type depMemory struct {
	design  DMDesign
	ways    int
	numSets int
	valid   []uint16 // per set: bit w set when way w holds a live address
	tags    []uint64
	entries []dmEntry
}

func newDepMemory(design DMDesign, numSets int) *depMemory {
	ways := design.Ways()
	return &depMemory{
		design:  design,
		ways:    ways,
		numSets: numSets,
		valid:   make([]uint16, numSets),
		tags:    make([]uint64, numSets*ways),
		entries: make([]dmEntry, numSets*ways),
	}
}

// reset invalidates every entry in place. A way is read only while its
// valid bit is set, and insert rewrites its tag and entry whole, so the
// rows keep whatever a freed way last held.
func (m *depMemory) reset() { clear(m.valid) }

// index computes the set for an address: the Pearson fold for P+8way,
// the low 6 bits of the word address for the direct-hash designs
// (Figure 4, Section IV-B). The direct hash selects address bits [7:2],
// not [5:0]: the prototype's Zynq PS side is a 32-bit ARMv7, so the
// addresses the runtime hands the accelerator are word-granular, and
// the byte-offset bits [1:0] of any dependence operand are constant
// zero — indexing with them would leave most sets unreachable.
// (Discovered the hard way: with a byte-address [5:0] index, SparseLu's
// malloc-carved 32KB blocks — stride 0x8010, i.e. 16 mod 64 — land in 4
// of 64 sets and Table II's sparselu/64 row overshoots the paper's
// conflict counts by 2x on 8way and reports 360 where the paper
// measures 0 on 16way; see paperref.KnownGaps.)
// On a sharded fabric the full-design index is folded onto the shard's
// partition of sets; with all 64 sets present the fold is the identity.
func (m *depMemory) index(addr uint64) int {
	var idx int
	if m.design == DMP8Way {
		idx = pearson.Index64(addr)
	} else {
		idx = int((addr >> 2) & (dmSets - 1))
	}
	if m.numSets < dmSets {
		idx %= m.numSets
	}
	return idx
}

// lookup performs the DM compare operation: it returns the entry holding
// addr if present.
//
//picos:hotpath
func (m *depMemory) lookup(addr uint64) (dmRef, bool) {
	s := m.index(addr)
	row := m.tags[s*m.ways : (s+1)*m.ways]
	for mask := m.valid[s]; mask != 0; mask &= mask - 1 {
		if w := bits.TrailingZeros16(mask); row[w] == addr {
			return dmRef{uint8(s), uint8(w)}, true
		}
	}
	return dmRef{}, false
}

// insert claims a free way for addr. It fails when the set is full — a
// DM conflict, the central performance hazard of Section V-A. Way 0 has
// the highest priority, as in Figure 4's pseudo code.
//
//picos:hotpath
func (m *depMemory) insert(addr uint64, head uint16, input bool) (dmRef, bool) {
	s := m.index(addr)
	free := ^m.valid[s] & (1<<m.ways - 1)
	if free == 0 {
		return dmRef{}, false
	}
	w := bits.TrailingZeros16(free)
	m.valid[s] |= 1 << w
	i := s*m.ways + w
	m.tags[i] = addr
	m.entries[i] = dmEntry{input: input, head: head, tail: head, count: 1}
	return dmRef{uint8(s), uint8(w)}, true
}

// at returns the entry for a ref.
func (m *depMemory) at(r dmRef) *dmEntry { return &m.entries[int(r.set)*m.ways+int(r.way)] }

// free invalidates the entry.
func (m *depMemory) free(r dmRef) { m.valid[r.set] &^= 1 << r.way }

// live returns the number of valid entries (used by drain checks).
func (m *depMemory) live() int {
	n := 0
	for _, mask := range m.valid {
		n += bits.OnesCount16(mask)
	}
	return n
}
