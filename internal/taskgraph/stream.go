package taskgraph

import (
	"slices"

	"repro/internal/trace"
)

// Incremental performs the same dependence analysis as Build one task at
// a time, for streaming consumers that never hold the whole trace: feed
// tasks in creation order and Preds returns each task's deduplicated
// predecessor list — exactly Build's g.Pred entry for that index (the
// differential test in stream_test.go enforces it).
//
// Memory grows with the number of *distinct dependence addresses*, not
// with the number of tasks: per address the analysis keeps the last
// writer and the readers since that writer, which is the irreducible
// state of OmpSs dependence semantics (any future task may still name
// the address). Grid patterns touch O(width) addresses, so unbounded
// replays stay bounded; fresh-address families inherently grow it.
type Incremental struct {
	states  map[uint64]*addrState
	scratch []int32
}

// addrState is the per-address analysis state, shared in shape with
// Build's local.
type addrState struct {
	lastWriter int32   // -1 if none
	readers    []int32 // readers since lastWriter
}

// NewIncremental returns an empty analysis.
func NewIncremental() *Incremental {
	return &Incremental{states: make(map[uint64]*addrState)}
}

// Reset empties the analysis for reuse, keeping the map's capacity.
func (inc *Incremental) Reset() {
	clear(inc.states)
}

// Preds analyzes the next task (ID id, in creation order) and returns
// its deduplicated, ascending predecessor list. The returned slice is
// scratch owned by the Incremental — copy it if it must survive the
// next call.
func (inc *Incremental) Preds(id int32, deps []trace.Dep) []int32 {
	preds := inc.scratch[:0]
	for _, d := range deps {
		st := inc.states[d.Addr]
		if st == nil {
			st = &addrState{lastWriter: -1}
			inc.states[d.Addr] = st
		}
		if d.Dir.Reads() && st.lastWriter >= 0 {
			preds = append(preds, st.lastWriter) // RAW
		}
		if d.Dir.Writes() {
			if st.lastWriter >= 0 {
				preds = append(preds, st.lastWriter) // WAW
			}
			for _, r := range st.readers { // WAR
				if r != id {
					preds = append(preds, r)
				}
			}
			st.lastWriter = id
			st.readers = st.readers[:0]
		}
		if d.Dir.Reads() && !d.Dir.Writes() {
			st.readers = append(st.readers, id)
		}
	}
	preds = dedupeInc(preds)
	inc.scratch = preds
	return preds
}

// dedupeInc matches Build's dedupe but keeps the backing array for
// scratch reuse (dedupe may alias a subslice; here the caller owns the
// buffer either way) and sorts without sort.Slice's per-call swapper
// allocation.
func dedupeInc(xs []int32) []int32 {
	if len(xs) <= 1 {
		return xs
	}
	slices.Sort(xs)
	w := 1
	for _, x := range xs[1:] {
		if x != xs[w-1] {
			xs[w] = x
			w++
		}
	}
	return xs[:w]
}
