package sched

import (
	"errors"
	"testing"
)

func TestParseGrammar(t *testing.T) {
	cs, err := Parse("4xfast+4xslow:2.0+1xaccel:0.25@stencil_2d,fft")
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 3 || cs.Workers() != 9 {
		t.Fatalf("parsed %+v, want 3 classes / 9 workers", cs)
	}
	if cs[0].Name != "fast" || cs[0].Count != 4 || cs[0].Mult != 1.0 || cs[0].Affinity != nil {
		t.Errorf("class 0 = %+v", cs[0])
	}
	if cs[1].Name != "slow" || cs[1].Mult != 2.0 {
		t.Errorf("class 1 = %+v", cs[1])
	}
	if cs[2].Name != "accel" || cs[2].Mult != 0.25 ||
		len(cs[2].Affinity) != 2 || cs[2].Affinity[0] != "stencil_2d" || cs[2].Affinity[1] != "fft" {
		t.Errorf("class 2 = %+v", cs[2])
	}
	if got := cs.String(); got != "4xfast+4xslow:2+1xaccel:0.25@stencil_2d,fft" {
		t.Errorf("String() = %q", got)
	}
	// String re-parses to the same classes.
	back, err := Parse(cs.String())
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != cs.String() {
		t.Errorf("reparse: %q != %q", back.String(), cs.String())
	}

	if cs, err := Parse(""); err != nil || cs != nil {
		t.Errorf("Parse(\"\") = %v, %v; want nil, nil", cs, err)
	}
}

func TestParseRejects(t *testing.T) {
	for _, bad := range []string{
		"fast",            // no count
		"0xfast",          // zero count
		"-1xfast",         // negative count
		"4x",              // empty name
		"4xfa st",         // bad name chars
		"4xfast:0",        // zero mult
		"4xfast:-2",       // negative mult
		"4xfast:+Inf",     // infinite mult
		"4xfast:banana",   // unparsable mult
		"4xfast+4xfast",   // duplicate name
		"4xfast+",         // empty segment
		"4xfast@",         // empty affinity list
		"4xfast@a,,b",     // empty kind in list
		"4xfast@a+3xa@,b", // empty kind, later segment
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

func TestUniformSingleScale(t *testing.T) {
	if !Classes(nil).Uniform() {
		t.Error("nil classes not uniform")
	}
	if !Single(8).Uniform() || Single(8).Workers() != 8 {
		t.Error("Single(8) not an 8-worker uniform platform")
	}
	if cs, _ := Parse("4xfast+4xslow:2"); cs.Uniform() {
		t.Error("two classes reported uniform")
	}
	if cs, _ := Parse("4xonly:2"); cs.Uniform() {
		t.Error("non-baseline mult reported uniform")
	}
	if cs, _ := Parse("4xonly@gs"); cs.Uniform() {
		t.Error("affinity class reported uniform")
	}

	cs, _ := Parse("1xbase+1xslow:2+1xthird:0.3")
	if got := cs.Scale(0, 1001); got != 1001 {
		t.Errorf("mult 1.0 not an exact passthrough: %d", got)
	}
	if got := cs.Scale(1, 1001); got != 2002 {
		t.Errorf("Scale(2.0, 1001) = %d", got)
	}
	if got := cs.Scale(2, 10); got != 3 { // ceil(3.0000...4) rounding up
		t.Errorf("Scale(0.3, 10) = %d", got)
	}
	if got := cs.Scale(2, 1); got != 1 {
		t.Errorf("Scale clamped %d, want >= 1", got)
	}
}

func TestEligibilityCoverage(t *testing.T) {
	kinds := []string{"gs", "fft"}
	cs, _ := Parse("2xany+1xfftonly:0.5@fft+1xghost@nosuchkind")
	el := cs.Eligibility(kinds)
	if el[0] != nil {
		t.Error("affinity-free class has a non-nil row")
	}
	if el[1] == nil || el[1][0] || el[1][1] || !el[1][2] {
		t.Errorf("fft-only row = %v, want only kind id 2", el[1])
	}
	if el[2] == nil || el[2][0] || el[2][1] || el[2][2] {
		t.Errorf("ghost affinity row = %v, want all false", el[2])
	}
	if m, ok := cs.BestMult(el, 2); !ok || m != 0.5 {
		t.Errorf("BestMult(fft) = %v, %v; want 0.5", m, ok)
	}
	if m, ok := cs.BestMult(el, 0); !ok || m != 1.0 {
		t.Errorf("BestMult(unkinded) = %v, %v; want 1.0", m, ok)
	}

	present := []bool{true, true, true}
	if err := cs.CheckCoverage(kinds, present); err != nil {
		t.Errorf("coverage with an unrestricted class: %v", err)
	}
	only, _ := Parse("2xfftonly@fft")
	if err := only.CheckCoverage(kinds, present); !errors.Is(err, ErrNoEligibleClass) {
		t.Errorf("uncovered kinds: %v, want ErrNoEligibleClass", err)
	}
	if err := only.CheckCoverage(kinds, []bool{false, false, true}); err != nil {
		t.Errorf("coverage restricted to present kinds: %v", err)
	}
}

func TestPolicyParse(t *testing.T) {
	for s, want := range map[string]Policy{
		"": FIFO, "fifo": FIFO, "lifo": LIFO, "priority": Priority, "locality": Locality,
	} {
		got, err := ParsePolicy(s)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v", s, got, err)
		}
		if s != "" && got.String() != s {
			t.Errorf("String() = %q, want %q", got.String(), s)
		}
	}
	if _, err := ParsePolicy("random"); err == nil {
		t.Error("unknown policy accepted")
	}
}

// TestPoolOnDemand: the historical plan (uniform classes, FIFO, no
// stealing) takes one ready task per idle worker; every other plan
// takes every ready task as soon as it is offered.
func TestPoolOnDemand(t *testing.T) {
	var p Pool[int]
	if err := p.Reset(Single(2), FIFO, false, nil, nil); err != nil {
		t.Fatal(err)
	}
	if p.Wants() {
		t.Error("on-demand pool without idle workers wants a task")
	}
	p.Park(0)
	p.Park(1)
	for i := 0; i < 2; i++ {
		if !p.Wants() {
			t.Fatalf("on-demand pool with %d idle workers and %d queued tasks wants none", p.Idle(), p.Len())
		}
		p.Enqueue(uint32(i), 0, i)
	}
	if p.Wants() {
		t.Error("on-demand pool wants more tasks than it has idle workers")
	}
	hetero, _ := Parse("4xa+4xb:2")
	for _, c := range []struct {
		classes Classes
		policy  Policy
		steal   bool
	}{
		{hetero, FIFO, false},
		{Single(2), LIFO, false},
		{Single(2), FIFO, true},
	} {
		if err := p.Reset(c.classes, c.policy, c.steal, nil, nil); err != nil {
			t.Fatal(err)
		}
		if !p.Wants() {
			t.Errorf("%+v: eager pool refused a task with no idle worker", c)
		}
	}
}

func TestHeaps(t *testing.T) {
	var ih IdleHeap
	for _, w := range []int{5, 1, 3, 0, 4, 2} {
		ih.Push(w)
	}
	for want := 0; want < 6; want++ {
		if got := ih.Pop(); got != want {
			t.Fatalf("IdleHeap popped %d, want %d", got, want)
		}
	}
	var dh DueHeap
	dh.Push(Due{Until: 10, Idx: 3})
	dh.Push(Due{Until: 5, Idx: 7})
	dh.Push(Due{Until: 10, Idx: 1})
	order := []Due{{5, 7}, {10, 1}, {10, 3}}
	for _, want := range order {
		if got := dh.Pop(); got != want {
			t.Fatalf("DueHeap popped %+v, want %+v", got, want)
		}
	}
}

// pool builds a reset pool over the given spec for the kind table.
func pool(t *testing.T, spec string, policy Policy, steal bool, kinds []string, prio []uint64) *Pool[int] {
	t.Helper()
	cs, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	p := &Pool[int]{}
	if err := p.Reset(cs, policy, steal, kinds, prio); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPoolFIFOGrantDeterminism(t *testing.T) {
	// Single uniform class, FIFO: oldest task to lowest-index idle
	// worker — the historical contract.
	p := pool(t, "4xw", FIFO, false, nil, nil)
	for w := 3; w >= 0; w-- {
		p.Park(w) // park order must not matter
	}
	for id := uint32(10); id < 16; id++ {
		p.Enqueue(id, 0, 0)
	}
	for i := 0; i < 4; i++ {
		w, it, ok := p.Grant()
		if !ok || w != i || it.ID != uint32(10+i) {
			t.Fatalf("grant %d = worker %d task %d (%v), want worker %d task %d", i, w, it.ID, ok, i, 10+i)
		}
	}
	if _, _, ok := p.Grant(); ok {
		t.Fatal("grant with no idle workers")
	}
	if p.Len() != 2 || p.Idle() != 0 {
		t.Fatalf("Len=%d Idle=%d, want 2/0", p.Len(), p.Idle())
	}
}

func TestPoolLIFOAndPriority(t *testing.T) {
	p := pool(t, "1xw", LIFO, false, nil, nil)
	p.Park(0)
	p.Enqueue(1, 0, 0)
	p.Enqueue(2, 0, 0)
	if _, it, ok := p.Grant(); !ok || it.ID != 2 {
		t.Fatalf("LIFO granted %d, want 2 (youngest)", it.ID)
	}

	prio := []uint64{0: 5, 1: 9, 2: 9, 3: 1}
	q := pool(t, "1xw", Priority, false, nil, prio)
	q.Park(0)
	for id := uint32(0); id < 4; id++ {
		q.Enqueue(id, 0, 0)
	}
	if _, it, ok := q.Grant(); !ok || it.ID != 1 {
		t.Fatalf("Priority granted %d, want 1 (highest bottom level, oldest on tie)", it.ID)
	}
	q.Park(0)
	if _, it, ok := q.Grant(); !ok || it.ID != 2 {
		t.Fatalf("Priority granted %d next, want 2", it.ID)
	}
}

// TestPoolResetNeedsBottomLevels: the Priority policy without per-task
// bottom levels is a typed refusal at Reset, not an index panic at the
// first grant; every other policy ignores prio.
func TestPoolResetNeedsBottomLevels(t *testing.T) {
	var p Pool[int]
	if err := p.Reset(Single(2), Priority, false, nil, nil); !errors.Is(err, ErrNoBottomLevels) {
		t.Fatalf("priority without bottom levels: got %v, want ErrNoBottomLevels", err)
	}
	if err := p.Reset(Single(2), Priority, false, nil, []uint64{}); err != nil {
		t.Fatalf("priority over an empty graph: %v", err)
	}
	for _, pol := range []Policy{FIFO, LIFO, Locality} {
		if err := p.Reset(Single(2), pol, true, nil, nil); err != nil {
			t.Fatalf("%v without bottom levels: %v", pol, err)
		}
	}
}

// TestCheckCoverageAnyKind: a nil present set means any declared kind
// may appear, unkinded tasks included, so every kind needs a class.
func TestCheckCoverageAnyKind(t *testing.T) {
	kinds := []string{"gs", "fft"}
	only, err := Parse("2xa@gs")
	if err != nil {
		t.Fatal(err)
	}
	if err := only.CheckCoverage(kinds, nil); !errors.Is(err, ErrNoEligibleClass) {
		t.Fatalf("gs-only classes under any kind: got %v, want ErrNoEligibleClass", err)
	}
	if err := only.CheckCoverage(kinds, []bool{false, true, false}); err != nil {
		t.Fatalf("gs-only classes with only gs present: %v", err)
	}
	if err := Single(2).CheckCoverage(kinds, nil); err != nil {
		t.Fatalf("an unrestricted class covers any kind: %v", err)
	}
}

func TestPoolAffinityGrant(t *testing.T) {
	kinds := []string{"gs", "fft"}
	// Worker 0-1: any; worker 2: fft only.
	p := pool(t, "2xany+1xaccel:0.5@fft", FIFO, false, kinds, nil)
	for w := 0; w < 3; w++ {
		p.Park(w)
	}
	p.Enqueue(7, 1, 0) // gs
	w, it, ok := p.Grant()
	if !ok || w != 0 || it.ID != 7 {
		t.Fatalf("granted worker %d task %d (%v), want worker 0 task 7", w, it.ID, ok)
	}
	p.Enqueue(8, 1, 0) // gs again: workers 1 idle, 2 ineligible
	p.Enqueue(9, 2, 0) // fft
	w, it, _ = p.Grant()
	if w != 1 || it.ID != 8 {
		t.Fatalf("granted worker %d task %d, want worker 1 task 8", w, it.ID)
	}
	// Only worker 2 (fft-only) is left; it must skip nothing and take
	// the fft task.
	w, it, _ = p.Grant()
	if w != 2 || it.ID != 9 {
		t.Fatalf("granted worker %d task %d, want worker 2 task 9", w, it.ID)
	}
	if p.Scale(2, 1000) != 500 {
		t.Errorf("accel scale = %d, want 500", p.Scale(2, 1000))
	}
}

func TestPoolStealVictimOrder(t *testing.T) {
	kinds := []string{"a", "b", "c"}
	// Three classes, stealing on: tasks park on their first eligible
	// (home) class queue; a worker drains its own queue first, then
	// victims in ascending class order.
	p := pool(t, "1xc0+1xc1+1xc2", FIFO, true, kinds, nil)
	// Home queue of every kind with no affinity anywhere is class 0, so
	// seed per-class queues directly through affinity-free Enqueue then
	// verify the drain order of worker 2 (class 2).
	p.Enqueue(10, 1, 0) // queue 0
	p.Enqueue(11, 2, 0) // queue 0 (first eligible class is 0 for all)
	if !p.CanTake(2) {
		t.Fatal("worker 2 cannot steal from class 0")
	}
	it, ok := p.TakeFor(2)
	if !ok || it.ID != 10 {
		t.Fatalf("worker 2 stole %d, want 10 (oldest in lowest victim)", it.ID)
	}

	// With per-class affinity the home queues separate; own queue wins
	// over an older task in a victim queue.
	q := pool(t, "1xka@a+1xkb@b,a", FIFO, true, kinds, nil)
	q.Enqueue(20, 1, 0)   // kind a -> home class 0
	q.Enqueue(21, 2, 0)   // kind b -> home class 1
	it, ok = q.TakeFor(1) // class 1 worker: own queue (21) before victim (20)
	if !ok || it.ID != 21 {
		t.Fatalf("worker 1 took %d, want own-queue 21", it.ID)
	}
	it, ok = q.TakeFor(1) // then steals the eligible task from class 0
	if !ok || it.ID != 20 {
		t.Fatalf("worker 1 stole %d, want 20", it.ID)
	}
	if q.Len() != 0 {
		t.Fatalf("pool not drained: %d", q.Len())
	}
}

func TestPoolLocalityTwoPass(t *testing.T) {
	kinds := []string{"a", "b"}
	p := pool(t, "1xc0+1xc1", Locality, false, kinds, nil)
	// Establish history: kind a last ran on class 1.
	p.Park(1)
	p.Enqueue(1, 1, 0)
	if w, it, ok := p.Grant(); !ok || w != 1 || it.ID != 1 {
		t.Fatalf("warmup grant = worker %d task %d (%v)", w, it.ID, ok)
	}

	// Both workers idle, one kind-a task: worker 0 passes (class 1 has
	// an idle worker and owns the history), worker 1 takes it.
	p.Park(0)
	p.Park(1)
	p.Enqueue(2, 1, 0)
	if w, it, ok := p.Grant(); !ok || w != 1 || it.ID != 2 {
		t.Fatalf("locality grant = worker %d task %d (%v), want preferred class 1", w, it.ID, ok)
	}
	// Preferred class busy: pass 2 lets class 0 take it (work
	// conservation beats locality).
	p.Enqueue(3, 1, 0)
	if w, it, ok := p.Grant(); !ok || w != 0 || it.ID != 3 {
		t.Fatalf("fallback grant = worker %d task %d (%v), want worker 0", w, it.ID, ok)
	}
}

func TestPoolWakeEligible(t *testing.T) {
	kinds := []string{"gs", "fft"}
	p := pool(t, "1xany+1xaccel@fft", FIFO, false, kinds, nil)
	p.Park(0)
	p.Park(1)
	// A gs task can only wake worker 0.
	if w, ok := p.WakeEligible(1); !ok || w != 0 {
		t.Fatalf("WakeEligible(gs) = %d, %v; want worker 0", w, ok)
	}
	// Now only the fft-only worker is idle; a gs task wakes nobody.
	if w, ok := p.WakeEligible(1); ok {
		t.Fatalf("WakeEligible(gs) woke %d with only the fft-only worker idle", w)
	}
	if w, ok := p.WakeEligible(2); !ok || w != 1 {
		t.Fatalf("WakeEligible(fft) = %d, %v; want worker 1", w, ok)
	}
	// WakeAny only wakes a worker that can take something queued.
	p.Park(0)
	p.Park(1)
	if w, ok := p.WakeAny(); ok {
		t.Fatalf("WakeAny woke %d with an empty pool", w)
	}
	p.Enqueue(5, 2, 0) // fft: both workers eligible, lowest index wins
	if w, ok := p.WakeAny(); !ok || w != 0 {
		t.Fatalf("WakeAny = %d, %v; want worker 0", w, ok)
	}
}

func TestPoolResetReuse(t *testing.T) {
	p := pool(t, "2xa+2xb:2", FIFO, true, []string{"k"}, nil)
	for w := 0; w < 4; w++ {
		p.Park(w)
	}
	p.Enqueue(1, 1, 0)
	// Reset onto a different shape: all state must clear.
	cs, _ := Parse("3xonly")
	p.Reset(cs, LIFO, false, nil, nil)
	if p.Len() != 0 || p.Idle() != 0 || p.Workers() != 3 {
		t.Fatalf("after Reset: Len=%d Idle=%d Workers=%d", p.Len(), p.Idle(), p.Workers())
	}
	p.Park(0)
	p.Enqueue(2, 0, 0)
	if _, it, ok := p.Grant(); !ok || it.ID != 2 {
		t.Fatalf("grant after reset: %v %v", it, ok)
	}
	// A warm Reset reuses the eligibility rows without allocating, and
	// no affinity bit of the previous plan survives in them.
	kinds := []string{"x", "y"}
	onX, _ := Parse("1xa@x+1xb")
	onY, _ := Parse("1xa@y+1xb")
	p.Reset(onX, FIFO, false, kinds, nil)
	p.Reset(onY, FIFO, false, kinds, nil)
	if p.eligible(0, 1) || !p.eligible(0, 2) {
		t.Error("class a kept its old affinity row after Reset")
	}
	p.Reset(Classes{{Name: "a", Count: 1, Mult: 1}, {Name: "b", Count: 1, Mult: 1}}, FIFO, false, kinds, nil)
	if !p.eligible(0, 1) || !p.eligible(0, 2) {
		t.Error("class a without affinity cannot run every kind")
	}
	if n := testing.AllocsPerRun(10, func() { p.Reset(onY, FIFO, false, kinds, nil) }); n != 0 {
		t.Errorf("warm Reset allocates %v times", n)
	}
}

// TestDueHeapRemoveIdx: fail-stopping a busy worker pulls its completion
// entry; the survivors must keep retiring in (until, idx) order.
func TestDueHeapRemoveIdx(t *testing.T) {
	entries := []Due{{30, 0}, {10, 1}, {20, 2}, {10, 3}, {40, 4}}
	for _, victim := range []int{0, 1, 3, 4} {
		var h DueHeap
		for _, e := range entries {
			h.Push(e)
		}
		got, ok := h.RemoveIdx(victim)
		if !ok || got.Idx != victim {
			t.Fatalf("RemoveIdx(%d) = %+v, %v", victim, got, ok)
		}
		if _, ok := h.RemoveIdx(victim); ok {
			t.Fatalf("RemoveIdx(%d) twice reported present", victim)
		}
		var prev Due
		for i := 0; len(h) > 0; i++ {
			e := h.Pop()
			if i > 0 && e.less(prev) {
				t.Fatalf("after RemoveIdx(%d): %+v popped after %+v", victim, e, prev)
			}
			prev = e
		}
	}
}

// TestPoolEvict: an evicted (fail-stopped) worker leaves the idle set
// for good — grants skip it, and evicting a busy (non-parked) worker is
// a no-op that reports absence.
func TestPoolEvict(t *testing.T) {
	p := pool(t, "3xw", FIFO, false, nil, nil)
	for w := 0; w < 3; w++ {
		p.Park(w)
	}
	if !p.Evict(1) {
		t.Fatal("Evict missed an idle worker")
	}
	if p.Evict(1) {
		t.Fatal("Evict twice reported present")
	}
	if p.Idle() != 2 {
		t.Fatalf("Idle = %d after evict, want 2", p.Idle())
	}
	p.Enqueue(1, 0, 0)
	p.Enqueue(2, 0, 0)
	p.Enqueue(3, 0, 0)
	if w, it, ok := p.Grant(); !ok || w != 0 || it.ID != 1 {
		t.Fatalf("grant = worker %d task %d (%v), want worker 0 task 1", w, it.ID, ok)
	}
	if w, it, ok := p.Grant(); !ok || w != 2 || it.ID != 2 {
		t.Fatalf("grant = worker %d task %d (%v), want worker 2 task 2 (1 evicted)", w, it.ID, ok)
	}
	if _, _, ok := p.Grant(); ok {
		t.Fatal("granted to an evicted worker")
	}
}
