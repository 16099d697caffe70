package sched

// Small hand-rolled min-heaps for worker bookkeeping, factored out of
// the HIL runner so every engine shares one implementation.
// container/heap would box every element through an interface; these
// keep dispatch and retirement allocation-free on warm runs.

// IdleHeap is a min-heap of worker indices: the idle-worker freelist,
// popping the lowest index first to match the reference loop's linear
// dispatch scan.
type IdleHeap []int

// Push adds a worker index.
func (h *IdleHeap) Push(v int) {
	*h = append(*h, v)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s[parent] <= s[i] {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

// Pop removes and returns the lowest worker index.
func (h *IdleHeap) Pop() int {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	*h = s[:n]
	s = s[:n]
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		least := left
		if right := left + 1; right < n && s[right] < s[left] {
			least = right
		}
		if s[i] <= s[least] {
			break
		}
		s[i], s[least] = s[least], s[i]
		i = least
	}
	return top
}

// Due is one busy worker: the cycle its task completes and its index.
type Due struct {
	Until uint64
	Idx   int
}

func (a Due) less(b Due) bool {
	if a.Until != b.Until {
		return a.Until < b.Until
	}
	return a.Idx < b.Idx
}

// RemoveIdx deletes the entry for worker index idx from the heap,
// returning it. This is an O(n) fault-path-only operation:
// fail-stopping a busy worker must pull its completion event so the
// dead worker never retires.
func (h *DueHeap) RemoveIdx(idx int) (Due, bool) {
	s := *h
	for i := range s {
		if s[i].Idx != idx {
			continue
		}
		out := s[i]
		n := len(s) - 1
		s[i] = s[n]
		*h = s[:n]
		s = s[:n]
		if i == n {
			return out, true
		}
		for i > 0 {
			parent := (i - 1) / 2
			if !s[i].less(s[parent]) {
				break
			}
			s[i], s[parent] = s[parent], s[i]
			i = parent
		}
		for {
			left := 2*i + 1
			if left >= n {
				break
			}
			least := left
			if right := left + 1; right < n && s[right].less(s[left]) {
				least = right
			}
			if !s[least].less(s[i]) {
				break
			}
			s[i], s[least] = s[least], s[i]
			i = least
		}
		return out, true
	}
	return Due{}, false
}

// DueHeap is a min-heap of busy workers ordered by (Until, Idx): the
// completion order per-cycle stepping produces (earlier finish cycles
// first, worker-index order within a cycle). With heterogeneous
// classes, Until already carries the class-scaled duration, so every
// fast-forward horizon derived from the heap head stays exact.
type DueHeap []Due

// Push adds a busy worker.
func (h *DueHeap) Push(v Due) {
	*h = append(*h, v)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s[i].less(s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

// Pop removes and returns the earliest-due worker.
func (h *DueHeap) Pop() Due {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	*h = s[:n]
	s = s[:n]
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		least := left
		if right := left + 1; right < n && s[right].less(s[left]) {
			least = right
		}
		if !s[least].less(s[i]) {
			break
		}
		s[i], s[least] = s[least], s[i]
		i = least
	}
	return top
}
