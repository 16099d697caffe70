package taskgraph

import (
	"slices"

	"repro/internal/table"
	"repro/internal/trace"
)

// Incremental is the dependence analysis, one task at a time: feed tasks
// in creation order and Preds returns each task's deduplicated
// predecessor list. Build is a loop over it; streaming consumers use it
// directly and never hold the whole trace.
//
// Memory grows with the number of *distinct dependence addresses* plus
// the readers outstanding since each address's last writer, not with the
// number of tasks: that is the irreducible state of OmpSs dependence
// semantics (any future task may still name the address). Grid patterns
// touch O(width) addresses, so unbounded replays stay bounded;
// fresh-address families inherently grow it.
//
// The state is pointer-free: an open-addressed table resolves each
// address to a slot in a dense addrState array, and each address's
// readers form a linked list through one shared node pool whose released
// nodes are recycled. Reset keeps every buffer, so a warm analysis
// allocates nothing.
type Incremental struct {
	slot    table.Map[int32] // address -> index into addrs
	addrs   []addrState
	readers []readerNode // shared pool of reader-list nodes
	free    int32        // head of the released-node list, -1 if empty
	scratch []int32
}

// addrState is the per-address analysis state.
type addrState struct {
	lastWriter int32 // -1 if none
	readHead   int32 // first node of the readers since lastWriter, -1 if none
}

// readerNode links one reader into its address's reader list (or, once
// released, into the free list).
type readerNode struct {
	task, next int32
}

// NewIncremental returns an empty analysis.
func NewIncremental() *Incremental {
	return &Incremental{free: -1}
}

// Reset empties the analysis for reuse, keeping every buffer's capacity.
func (inc *Incremental) Reset() {
	inc.slot.Reset()
	inc.addrs = inc.addrs[:0]
	inc.readers = inc.readers[:0]
	inc.free = -1
}

// Preds analyzes the next task (ID id, in creation order) and returns
// its deduplicated, ascending predecessor list. The returned slice is
// scratch owned by the Incremental — copy it if it must survive the
// next call.
//
//picos:hotpath
func (inc *Incremental) Preds(id int32, deps []trace.Dep) []int32 {
	preds := inc.scratch[:0]
	for _, d := range deps {
		s, ok := inc.slot.Get(d.Addr)
		if !ok {
			s = int32(len(inc.addrs))
			inc.slot.Put(d.Addr, s)
			inc.addrs = append(inc.addrs, addrState{lastWriter: -1, readHead: -1})
		}
		st := &inc.addrs[s]
		if d.Dir.Reads() && st.lastWriter >= 0 {
			preds = append(preds, st.lastWriter) // RAW
		}
		if d.Dir.Writes() {
			if st.lastWriter >= 0 {
				preds = append(preds, st.lastWriter) // WAW
			}
			// WAR: every reader since the last writer, each node handed
			// back to the free list as it is visited.
			for r := st.readHead; r >= 0; {
				nd := &inc.readers[r]
				if nd.task != id {
					preds = append(preds, nd.task)
				}
				next := nd.next
				nd.next = inc.free
				inc.free = r
				r = next
			}
			st.lastWriter = id
			st.readHead = -1
		}
		if d.Dir.Reads() && !d.Dir.Writes() {
			st.readHead = inc.pushReader(id, st.readHead)
		}
	}
	slices.Sort(preds)
	preds = slices.Compact(preds)
	inc.scratch = preds
	return preds
}

// pushReader links a node (task, next) from the free list, or a fresh
// pool slot, and returns its index.
//
//picos:hotpath
func (inc *Incremental) pushReader(task, next int32) int32 {
	r := inc.free
	if r < 0 {
		r = int32(len(inc.readers))
		inc.readers = append(inc.readers, readerNode{task: task, next: next})
		return r
	}
	inc.free = inc.readers[r].next
	inc.readers[r] = readerNode{task: task, next: next}
	return r
}
