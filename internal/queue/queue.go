// Package queue provides small, allocation-friendly FIFO and LIFO
// containers used throughout the simulator: hardware FIFOs between Picos
// units, ready-task queues in the Task Scheduler, and event queues in the
// software-runtime model. Both are unbounded; a bounded hardware buffer
// is modelled by its owner (picos.Config.NewQDepth bounds the GW
// new-task queue).
package queue

// FIFO is a growable ring-buffer queue. The zero value is ready to use.
// The ring length is always a power of two, so wrapping is a mask.
type FIFO[T any] struct {
	buf  []T
	head int
	size int
}

// Len returns the number of queued elements.
func (q *FIFO[T]) Len() int { return q.size }

// Empty reports whether the queue holds no elements.
func (q *FIFO[T]) Empty() bool { return q.size == 0 }

// Push appends v.
func (q *FIFO[T]) Push(v T) {
	if q.size == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.size)&(len(q.buf)-1)] = v
	q.size++
}

// Pop removes and returns the oldest element. ok is false when empty.
func (q *FIFO[T]) Pop() (v T, ok bool) {
	if q.size == 0 {
		return v, false
	}
	v = q.buf[q.head]
	q.Drop()
	return v, true
}

// Peek returns the oldest element without removing it.
func (q *FIFO[T]) Peek() (v T, ok bool) {
	if q.size == 0 {
		return v, false
	}
	return q.buf[q.head], true
}

// Head returns a pointer to the oldest element, or nil when empty, so a
// caller can read the head in place and then Drop it instead of copying
// it out twice through Peek and Pop. The pointer is only valid until
// the next Push or Drop.
func (q *FIFO[T]) Head() *T {
	if q.size == 0 {
		return nil
	}
	return &q.buf[q.head]
}

// Drop removes the oldest element, if any, without returning it.
func (q *FIFO[T]) Drop() {
	if q.size == 0 {
		return
	}
	var zero T
	q.buf[q.head] = zero // avoid retaining references
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.size--
}

// Tail returns a pointer to the most recently pushed element, for
// in-place coalescing of adjacent entries (the HIL link batches
// same-stamp deliveries this way). The pointer is only valid until the
// next Push, which may grow the ring and move the storage.
func (q *FIFO[T]) Tail() (*T, bool) {
	if q.size == 0 {
		return nil, false
	}
	return &q.buf[(q.head+q.size-1)&(len(q.buf)-1)], true
}

// Reset drops all elements but keeps the backing storage.
func (q *FIFO[T]) Reset() {
	clear(q.buf)
	q.head, q.size = 0, 0
}

func (q *FIFO[T]) grow() {
	n := max(2*len(q.buf), 8)
	nb := make([]T, n)
	for i := 0; i < q.size; i++ {
		nb[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf = nb
	q.head = 0
}

// Stack is a LIFO used by the Task Scheduler's alternative policy
// (Figure 9 of the paper). The zero value is ready to use.
type Stack[T any] struct {
	buf []T
}

// Len returns the number of stacked elements.
func (s *Stack[T]) Len() int { return len(s.buf) }

// Empty reports whether the stack holds no elements.
func (s *Stack[T]) Empty() bool { return len(s.buf) == 0 }

// Push adds v.
func (s *Stack[T]) Push(v T) { s.buf = append(s.buf, v) }

// Pop removes and returns the most recently pushed element.
func (s *Stack[T]) Pop() (v T, ok bool) {
	if len(s.buf) == 0 {
		return v, false
	}
	v = s.buf[len(s.buf)-1]
	var zero T
	s.buf[len(s.buf)-1] = zero
	s.buf = s.buf[:len(s.buf)-1]
	return v, true
}

// Peek returns the most recently pushed element without removing it.
func (s *Stack[T]) Peek() (v T, ok bool) {
	if len(s.buf) == 0 {
		return v, false
	}
	return s.buf[len(s.buf)-1], true
}

// Reset drops all elements but keeps the backing storage.
func (s *Stack[T]) Reset() {
	clear(s.buf)
	s.buf = s.buf[:0]
}
