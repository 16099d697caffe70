package queue

import (
	"testing"
	"testing/quick"
)

func TestFIFOBasic(t *testing.T) {
	var q FIFO[int]
	if !q.Empty() || q.Len() != 0 {
		t.Fatal("new FIFO not empty")
	}
	for i := 0; i < 100; i++ {
		q.Push(i)
	}
	if q.Len() != 100 {
		t.Fatalf("len = %d, want 100", q.Len())
	}
	for i := 0; i < 100; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("pop = %d,%v want %d,true", v, ok, i)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop on empty succeeded")
	}
}

func TestFIFOPeekReset(t *testing.T) {
	var q FIFO[string]
	if _, ok := q.Peek(); ok {
		t.Fatal("peek on empty succeeded")
	}
	q.Push("a")
	q.Push("b")
	if v, ok := q.Peek(); !ok || v != "a" {
		t.Fatalf("peek = %q,%v", v, ok)
	}
	if q.Len() != 2 {
		t.Fatal("peek consumed an element")
	}
	q.Reset()
	if !q.Empty() {
		t.Fatal("reset did not empty queue")
	}
	q.Push("c")
	if v, _ := q.Pop(); v != "c" {
		t.Fatal("wrong element after reset")
	}
}

func TestFIFOHeadDrop(t *testing.T) {
	var q FIFO[int]
	if q.Head() != nil {
		t.Fatal("head of an empty FIFO is not nil")
	}
	q.Drop() // a no-op on an empty FIFO
	for i := 0; i < 20; i++ {
		q.Push(i)
	}
	for i := 0; i < 20; i++ {
		h := q.Head()
		if h == nil || *h != i {
			t.Fatalf("head = %v, want %d", h, i)
		}
		*h = -1 // the pointer is the stored element
		if v, _ := q.Peek(); v != -1 {
			t.Fatalf("peek after writing through head = %d", v)
		}
		q.Drop()
		if q.Len() != 19-i {
			t.Fatalf("len after %d drops = %d", i+1, q.Len())
		}
	}
	if q.Head() != nil || !q.Empty() {
		t.Fatal("FIFO not empty after dropping every element")
	}
}

func TestFIFOWrapAround(t *testing.T) {
	var q FIFO[int]
	// Interleave pushes and pops to force the head to wrap repeatedly.
	next, expect := 0, 0
	for round := 0; round < 50; round++ {
		for i := 0; i < 7; i++ {
			q.Push(next)
			next++
		}
		for i := 0; i < 5; i++ {
			v, ok := q.Pop()
			if !ok || v != expect {
				t.Fatalf("round %d: pop = %d,%v want %d", round, v, ok, expect)
			}
			expect++
		}
	}
	for !q.Empty() {
		v, _ := q.Pop()
		if v != expect {
			t.Fatalf("drain: got %d want %d", v, expect)
		}
		expect++
	}
	if expect != next {
		t.Fatalf("drained %d items, pushed %d", expect, next)
	}
}

func TestFIFOOrderProperty(t *testing.T) {
	// Property: for any sequence of pushed values, pops return the same
	// sequence (FIFO order is preserved across growth).
	f := func(vals []uint16) bool {
		var q FIFO[uint16]
		for _, v := range vals {
			q.Push(v)
		}
		for _, want := range vals {
			got, ok := q.Pop()
			if !ok || got != want {
				return false
			}
		}
		_, ok := q.Pop()
		return !ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStackBasic(t *testing.T) {
	var s Stack[int]
	for i := 0; i < 10; i++ {
		s.Push(i)
	}
	for i := 9; i >= 0; i-- {
		v, ok := s.Pop()
		if !ok || v != i {
			t.Fatalf("pop = %d,%v want %d", v, ok, i)
		}
	}
	if _, ok := s.Pop(); ok {
		t.Fatal("pop on empty stack succeeded")
	}
}

func TestStackPeekReset(t *testing.T) {
	var s Stack[int]
	s.Push(1)
	s.Push(2)
	if v, ok := s.Peek(); !ok || v != 2 {
		t.Fatalf("peek = %d,%v", v, ok)
	}
	s.Reset()
	if !s.Empty() {
		t.Fatal("reset did not empty stack")
	}
}

func TestStackOrderProperty(t *testing.T) {
	f := func(vals []int8) bool {
		var s Stack[int8]
		for _, v := range vals {
			s.Push(v)
		}
		for i := len(vals) - 1; i >= 0; i-- {
			got, ok := s.Pop()
			if !ok || got != vals[i] {
				return false
			}
		}
		return s.Empty()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
