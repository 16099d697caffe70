package picos

import (
	"math/rand"
	"testing"

	"repro/internal/trace"
)

func simpleTrace(deps [][]trace.Dep, dur uint64) *trace.Trace {
	tr := &trace.Trace{Name: "t"}
	for i := range deps {
		tr.Tasks = append(tr.Tasks, trace.Task{ID: uint32(i), Duration: dur, Deps: deps[i]})
	}
	return tr
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{NumTRS: 300}); err == nil {
		t.Fatal("accepted 300 TRS instances")
	}
	p, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Config().NumTRS != 1 || p.Config().NumDCT != 1 {
		t.Fatalf("defaults not applied: %+v", p.Config())
	}
}

func TestSingleTaskNoDeps(t *testing.T) {
	tr := simpleTrace([][]trace.Dep{nil}, 5)
	r := runTrace(t, tr, DefaultConfig(), 1)
	r.verify(t, tr)
	if r.start[0] == 0 {
		t.Fatal("task started at cycle 0; pipeline latency missing")
	}
	// First-task latency should be tens of cycles (Table IV: 45).
	if r.start[0] > 100 {
		t.Fatalf("first-task latency %d cycles; want < 100", r.start[0])
	}
}

func TestIndependentTasksAllRun(t *testing.T) {
	deps := make([][]trace.Dep, 50)
	tr := simpleTrace(deps, 3)
	r := runTrace(t, tr, DefaultConfig(), 4)
	r.verify(t, tr)
}

// TestFigure5ChainSemantics reproduces the paper's Figure 5 walk-through:
// six tasks with a single dependence A — producer T0; consumers T1,T2,T3;
// producers T4,T5. With one worker and a long-running T0 (so the whole
// graph registers first), execution must be:
//
//	T0, then the consumer chain woken from the LAST consumer (T3,T2,T1),
//	then the producer-producer chain in sequence (T4, T5).
func TestFigure5ChainSemantics(t *testing.T) {
	a := uint64(0x7000)
	tr := simpleTrace([][]trace.Dep{
		{{Addr: a, Dir: trace.Out}},
		{{Addr: a, Dir: trace.In}},
		{{Addr: a, Dir: trace.In}},
		{{Addr: a, Dir: trace.In}},
		{{Addr: a, Dir: trace.InOut}},
		{{Addr: a, Dir: trace.InOut}},
	}, 1)
	tr.Tasks[0].Duration = 10_000 // everyone registers while T0 runs

	r := runTrace(t, tr, DefaultConfig(), 1)
	r.verify(t, tr)
	want := []uint32{0, 3, 2, 1, 4, 5}
	for i, id := range want {
		if r.order[i] != id {
			t.Fatalf("execution order %v, want %v (wake-from-last-consumer)", r.order, want)
		}
	}
}

// TestConsumerAfterProducerDone: a reader arriving after the producer
// finished must be ready immediately, not chained.
func TestConsumerAfterProducerDone(t *testing.T) {
	a := uint64(0x8000)
	tr := simpleTrace([][]trace.Dep{
		{{Addr: a, Dir: trace.Out}},
		{{Addr: a, Dir: trace.In}},
	}, 2)
	r := runTrace(t, tr, DefaultConfig(), 2)
	r.verify(t, tr)
	if r.start[1] < r.finish[0] {
		t.Fatalf("reader started at %d before writer finished at %d", r.start[1], r.finish[0])
	}
}

// TestInputOnlyChainIsParallel: readers with no producer are mutually
// independent (the DM input bit).
func TestInputOnlyChainIsParallel(t *testing.T) {
	a := uint64(0x9000)
	deps := make([][]trace.Dep, 8)
	for i := range deps {
		deps[i] = []trace.Dep{{Addr: a, Dir: trace.In}}
	}
	tr := simpleTrace(deps, 1000)
	r := runTrace(t, tr, DefaultConfig(), 8)
	r.verify(t, tr)
	// With 8 workers and all-independent tasks, every task must overlap
	// with at least one other.
	overlaps := 0
	for i := 0; i < 8; i++ {
		for j := i + 1; j < 8; j++ {
			if r.start[i] < r.finish[j] && r.start[j] < r.finish[i] {
				overlaps++
			}
		}
	}
	if overlaps == 0 {
		t.Fatal("input-only tasks were serialized")
	}
}

// TestWARBlocksWriter: a writer must wait for all earlier readers.
func TestWARBlocksWriter(t *testing.T) {
	a, b := uint64(0xA000), uint64(0xB000)
	tr := simpleTrace([][]trace.Dep{
		{{Addr: a, Dir: trace.Out}},                          // producer
		{{Addr: a, Dir: trace.In}, {Addr: b, Dir: trace.In}}, // reader 1
		{{Addr: a, Dir: trace.In}},                           // reader 2
		{{Addr: a, Dir: trace.Out}},                          // overwriter: WAR on 1,2 WAW on 0
	}, 500)
	r := runTrace(t, tr, DefaultConfig(), 4)
	r.verify(t, tr)
	for i := 0; i < 3; i++ {
		if r.start[3] < r.finish[i] {
			t.Fatalf("overwriter started at %d before task %d finished at %d", r.start[3], i, r.finish[i])
		}
	}
}

// TestDMConflictCounting checks Table II's conflict mechanism: distinct
// addresses that collide in the same direct-hash set conflict once the
// ways are exhausted, while the Pearson design spreads them out.
func TestDMConflictCounting(t *testing.T) {
	const n = 20
	deps := make([][]trace.Dep, n)
	for i := range deps {
		// Stride 256 bytes: identical word-address bits [7:2] => same
		// direct-hash set.
		deps[i] = []trace.Dep{{Addr: 0x100000 + uint64(i)*256, Dir: trace.InOut}}
	}
	tr := simpleTrace(deps, 1000)

	cfg := DefaultConfig()
	cfg.Design = DM8Way
	r := runTrace(t, tr, cfg, 1)
	r.verify(t, tr)
	// One worker serializes completions, so every dependence beyond the 8
	// ways conflicts exactly once.
	if got := r.p.Stats().DMConflicts; got != n-8 {
		t.Fatalf("DM 8way conflicts = %d, want %d", got, n-8)
	}

	cfg.Design = DM16Way
	r = runTrace(t, tr, cfg, 1)
	r.verify(t, tr)
	if got := r.p.Stats().DMConflicts; got != n-16 {
		t.Fatalf("DM 16way conflicts = %d, want %d", got, n-16)
	}

	cfg.Design = DMP8Way
	r = runTrace(t, tr, cfg, 1)
	r.verify(t, tr)
	if got := r.p.Stats().DMConflicts; got > 2 {
		t.Fatalf("DM P+8way conflicts = %d, want ~0 (Pearson spreads the set index)", got)
	}
}

// TestAdmissionControlBoundsInFlight: the GW must never exceed 256
// in-flight tasks (TM0 capacity).
func TestAdmissionControlBoundsInFlight(t *testing.T) {
	const n = 400
	deps := make([][]trace.Dep, n)
	tr := simpleTrace(deps, 1_000_000) // long tasks: nothing finishes
	p, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Tasks {
		p.Submit(tr.Tasks[i].ID, tr.Tasks[i].Deps)
	}
	for c := 0; c < 30_000; c++ {
		p.Step()
		if p.InFlight() > tmSlots {
			t.Fatalf("in-flight %d exceeds TM capacity %d", p.InFlight(), tmSlots)
		}
	}
	if p.InFlight() != tmSlots {
		t.Fatalf("in-flight %d, want %d (queue should fill TM0)", p.InFlight(), tmSlots)
	}
	if p.Stats().GWBlockedCycles == 0 {
		t.Fatal("GW never blocked despite TM exhaustion")
	}
}

// TestVMHeadroomAdmission: tasks with 15 deps must be throttled so the VM
// never exhausts (the deadlock-avoidance workflow).
func TestVMHeadroomAdmission(t *testing.T) {
	const n = 120
	deps := make([][]trace.Dep, n)
	for i := range deps {
		for d := 0; d < trace.MaxDeps; d++ {
			deps[i] = append(deps[i], trace.Dep{Addr: uint64(i*64+d)*4096 + 0x100000, Dir: trace.InOut})
		}
	}
	tr := simpleTrace(deps, 50_000) // long tasks pile up in the VM
	r := runTrace(t, tr, DefaultConfig(), 4)
	r.verify(t, tr)
	st := r.p.Stats()
	if st.MaxVMLive > DMP8Way.Capacity() {
		t.Fatalf("VM live %d exceeded capacity %d", st.MaxVMLive, DMP8Way.Capacity())
	}
	if st.GWBlockedCycles == 0 {
		t.Fatal("expected GW to throttle on VM headroom at least once")
	}
}

// TestMultiInstance exercises the Figure 3a future architecture: 4 TRS +
// 4 DCT instances must still produce legal schedules.
func TestMultiInstance(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tr := randomDepTrace(rng, 300, 24)
	cfg := DefaultConfig()
	cfg.NumTRS = 4
	cfg.NumDCT = 4
	r := runTrace(t, tr, cfg, 16)
	r.verify(t, tr)
}

// TestLIFOPolicyLegal: the LIFO TS variant must remain legal.
func TestLIFOPolicyLegal(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := randomDepTrace(rng, 200, 16)
	cfg := DefaultConfig()
	cfg.Policy = SchedLIFO
	r := runTrace(t, tr, cfg, 4)
	r.verify(t, tr)
}

// randomDepTrace builds a trace with dense random dependences over a
// small address pool.
func randomDepTrace(rng *rand.Rand, n, addrs int) *trace.Trace {
	tr := &trace.Trace{Name: "rand"}
	for i := 0; i < n; i++ {
		task := trace.Task{ID: uint32(i), Duration: uint64(rng.Intn(300) + 1)}
		nd := rng.Intn(5)
		used := map[uint64]bool{}
		for d := 0; d < nd; d++ {
			// Mixed alignment: some clustered, some spread.
			var addr uint64
			if rng.Intn(2) == 0 {
				addr = 0x100000 + uint64(rng.Intn(addrs))*131072
			} else {
				addr = 0x900000 + uint64(rng.Intn(addrs))*64
			}
			if used[addr] {
				continue
			}
			used[addr] = true
			task.Deps = append(task.Deps, trace.Dep{Addr: addr, Dir: trace.Direction(rng.Intn(3))})
		}
		tr.Tasks = append(tr.Tasks, task)
	}
	return tr
}

// TestOracleProperty is the central correctness property: across random
// traces, every DM design, both scheduling policies and several worker
// counts, Picos must produce dependence-legal schedules and drain
// completely.
func TestOracleProperty(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		rng := rand.New(rand.NewSource(seed))
		tr := randomDepTrace(rng, 150, 12)
		for _, design := range Designs {
			for _, policy := range []SchedPolicy{SchedFIFO, SchedLIFO} {
				for _, workers := range []int{1, 3, 8} {
					cfg := DefaultConfig()
					cfg.Design = design
					cfg.Policy = policy
					r := runTrace(t, tr, cfg, workers)
					r.verify(t, tr)
				}
			}
		}
	}
}

// TestMoreWorkersNeverSlower (weak monotonicity): doubling workers must
// not increase makespan by more than scheduling noise.
func TestMoreWorkersNeverSlower(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := randomDepTrace(rng, 200, 10)
	m1 := runTrace(t, tr, DefaultConfig(), 1).makespan()
	m4 := runTrace(t, tr, DefaultConfig(), 4).makespan()
	if float64(m4) > 1.05*float64(m1) {
		t.Fatalf("4 workers (%d) slower than 1 worker (%d)", m4, m1)
	}
}
