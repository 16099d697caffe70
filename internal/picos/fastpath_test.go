package picos

import (
	"slices"
	"testing"

	"repro/internal/trace"
)

// fastpathTrace is a small mixed workload: producer/consumer chains on a
// few addresses plus independent tasks, enough to exercise every unit.
func fastpathTasks() []trace.Task {
	var tasks []trace.Task
	for i := 0; i < 30; i++ {
		t := trace.Task{ID: uint32(i), Duration: 1}
		switch i % 3 {
		case 0:
			t.Deps = []trace.Dep{{Addr: 0x1000, Dir: trace.InOut}}
		case 1:
			t.Deps = []trace.Dep{{Addr: 0x1000, Dir: trace.In}, {Addr: 0x2000, Dir: trace.Out}}
		case 2:
			t.Deps = []trace.Dep{{Addr: 0x2000, Dir: trace.In}, {Addr: 0x3000 + uint64(i)<<7, Dir: trace.InOut}}
		}
		tasks = append(tasks, t)
	}
	return tasks
}

func submitAll(t *testing.T, p *Picos, tasks []trace.Task) {
	t.Helper()
	for i := range tasks {
		if err := p.Submit(tasks[i].ID, tasks[i].Deps); err != nil {
			t.Fatal(err)
		}
	}
}

// holdTasks returns n tasks, each writing deps fresh addresses of its own.
func holdTasks(n, deps int) []trace.Task {
	tasks := make([]trace.Task, n)
	for i := range tasks {
		tasks[i].ID = uint32(i)
		for k := 0; k < deps; k++ {
			tasks[i].Deps = append(tasks[i].Deps, trace.Dep{Addr: 0x10000 + uint64(i*deps+k)<<2, Dir: trace.Out})
		}
	}
	return tasks
}

// lastVMTasks fills set 0 of the direct-hash DM with A1..A8 and the VM
// up to its last entry, then submits one task whose A9 parks on the full
// set while its A1 takes that last entry: the parked dependence's next
// retry fails on the VM instead of the set, which turns its per-cycle
// stall counter from DM-conflict to VM-stall cycles.
func lastVMTasks() []trace.Task {
	addr := func(k int) uint64 { return uint64(k) << 8 } // every k maps to set 0
	write := func(ks ...int) []trace.Dep {
		deps := make([]trace.Dep, len(ks))
		for i, k := range ks {
			deps[i] = trace.Dep{Addr: addr(k), Dir: trace.Out}
		}
		return deps
	}
	var tasks []trace.Task
	for i := 0; i < 63; i++ {
		tasks = append(tasks, trace.Task{ID: uint32(len(tasks)), Deps: write(1, 2, 3, 4, 5, 6, 7, 8)})
	}
	tasks = append(tasks, trace.Task{ID: uint32(len(tasks)), Deps: write(1, 2, 3, 4, 5, 6, 7)})
	return append(tasks, trace.Task{ID: uint32(len(tasks)), Deps: write(9, 1)})
}

// parkedRecycleTasks parks a dependence on direct-hash set 0 while the
// DCT's other traffic goes on: 24 writers of fresh addresses in sets
// 1..24 and 8 readers of one set-2 address come first, then 8 writers
// fill set 0, a ninth set-0 writer parks, and 39 writers of sets 25..63
// keep the registration engine busy behind it. Under a uniform hold the
// early tasks finish first, so while the ninth writer is parked the DCT
// recycles versions in other sets (a retry is owed, often at the end of
// a registration, and re-fails) and takes reader releases that recycle
// nothing (no retry is owed); the parked writer must register at the
// first cycle a set-0 writer's release frees a way.
func parkedRecycleTasks() []trace.Task {
	var tasks []trace.Task
	add := func(addr uint64, dir trace.Direction) {
		tasks = append(tasks, trace.Task{ID: uint32(len(tasks)), Deps: []trace.Dep{{Addr: addr, Dir: dir}}})
	}
	for set := 1; set <= 24; set++ {
		add(0x20000+uint64(set)<<2, trace.Out)
	}
	for i := 0; i < 8; i++ {
		add(0x30008, trace.In) // set 2: one version, eight consumers
	}
	for k := 0; k <= 8; k++ {
		add(sameSetAddr(k), trace.Out)
	}
	for set := 25; set < 64; set++ {
		add(0x40000+uint64(set)<<2, trace.Out)
	}
	return tasks
}

// pop is one PopReady call made by driveTo.
type pop struct {
	at uint64
	id uint32
}

// driveTo submits tasks and advances p to horizon. With hold > 0 it pops
// every ready task at the first cycle it is poppable and notifies its
// finish hold cycles later; with hold == 0 ready tasks stay in the TS.
// fast selects the event-driven loop (RunTo, or RunToReady when tasks
// are popped) over stepping every cycle; both perform the same external
// calls at the same cycles.
func driveTo(t *testing.T, p *Picos, tasks []trace.Task, hold, horizon uint64, fast bool) []pop {
	t.Helper()
	submitAll(t, p, tasks)
	type run struct {
		until uint64
		h     TaskHandle
	}
	var pops []pop
	var running []run // in finish order: every task runs hold cycles
	for p.Now() < horizon {
		now := p.Now()
		for len(running) > 0 && running[0].until <= now {
			p.NotifyFinish(running[0].h)
			running = running[1:]
		}
		for hold > 0 {
			rt, ok := p.PopReady()
			if !ok {
				break
			}
			pops = append(pops, pop{at: now, id: rt.ID})
			running = append(running, run{until: now + hold, h: rt.Handle})
		}
		switch {
		case !fast:
			p.Step()
		case hold == 0:
			p.RunTo(horizon)
		default:
			next := horizon
			if len(running) > 0 {
				next = min(next, running[0].until)
			}
			if at, ok := p.ReadyAt(); ok {
				next = min(next, max(at, now+1))
			}
			if p.RunToReady(next); p.Now() == now {
				p.RunTo(next) // no internal event before next: leap to it
			}
		}
	}
	return pops
}

// TestRunToMatchesStep: advancing with the event-driven loop must leave
// the model in the same externally observable state as stepping every
// cycle — same statistics, clock, in-flight count, ready set and pop
// schedule — at a range of horizons. The held rows keep the GW blocked
// on TM slots or VM credits and the DCT stalled on a full DM set or VM,
// so they pin every signal that lets a blocked unit retry: the two DCT
// rows pin the two owed retries of a parked dependence, after a
// registration takes the last VM entry (dct-last-vm) and after a
// version recycles (dct-parked-recycle). The zero-pipes row lets a
// packet become routable in the cycle it is sent, so a unit must step
// in the same cycle another unit fed it.
func TestRunToMatchesStep(t *testing.T) {
	credits := DefaultConfig()
	credits.VMReserve = 400 // 112 credits: admission runs out of credits before TM slots
	slots8way := DefaultConfig()
	slots8way.Design = DM8Way
	slots8way.Admission = AdmitSlotsOnly
	slots := DefaultConfig()
	slots.Admission = AdmitSlotsOnly
	gwBlocked := func(s Stats) uint64 { return s.GWBlockedCycles }
	vmStalled := func(s Stats) uint64 { return s.VMStallCycles }
	dmStalled := func(s Stats) uint64 { return s.DMConflictStallCycles }
	for _, tc := range []struct {
		name     string
		cfg      Config
		tasks    []trace.Task
		hold     uint64
		horizons []uint64
		stall    func(Stats) uint64 // the counter the row pins, nonzero by the last horizon
	}{
		{"mixed", Config{}, fastpathTasks(), 0, []uint64{1, 7, 64, 300, 1000, 5000}, nil},
		{"gw-slots", slots, holdTasks(600, 0), 20_000, []uint64{30_000, 100_000}, gwBlocked},
		{"gw-credits", credits, holdTasks(600, 1), 20_000, []uint64{30_000, 150_000}, gwBlocked},
		{"dct-last-vm", slots8way, lastVMTasks(), 0, []uint64{2_000, 10_000}, vmStalled},
		{"dct-parked-recycle", slots8way, parkedRecycleTasks(), 1000, []uint64{500, 1200, 1800, 1900, 5000}, dmStalled},
		{"zero-pipes", zeroPipeConfig(), keysTasks(300), 400, []uint64{64, 1000, 10_000, 60_000}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var last Stats
			for _, horizon := range tc.horizons {
				a, err := New(tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				b, err := New(tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				popsA := driveTo(t, a, tc.tasks, tc.hold, horizon, false)
				popsB := driveTo(t, b, tc.tasks, tc.hold, horizon, true)
				if a.Now() != b.Now() {
					t.Fatalf("horizon %d: clocks diverge: %d vs %d", horizon, a.Now(), b.Now())
				}
				if *a.Stats() != *b.Stats() {
					t.Fatalf("horizon %d: stats diverge:\nstep:  %+v\nrunto: %+v", horizon, *a.Stats(), *b.Stats())
				}
				if a.InFlight() != b.InFlight() || a.ReadyCount() != b.ReadyCount() {
					t.Fatalf("horizon %d: occupancy diverges: inflight %d/%d ready %d/%d",
						horizon, a.InFlight(), b.InFlight(), a.ReadyCount(), b.ReadyCount())
				}
				ra, aok := a.ReadyAt()
				rb, bok := b.ReadyAt()
				if aok != bok || ra != rb {
					t.Fatalf("horizon %d: ReadyAt diverges: %d,%v vs %d,%v", horizon, ra, aok, rb, bok)
				}
				if !slices.Equal(popsA, popsB) {
					t.Fatalf("horizon %d: pop schedules diverge (%d vs %d pops)", horizon, len(popsA), len(popsB))
				}
				last = *a.Stats()
			}
			if tc.stall != nil && tc.stall(last) == 0 {
				t.Fatalf("the row never stalls, so it pins no retry signal: %+v", last)
			}
		})
	}
}

// TestRunToNeverRewinds: RunTo and StepTo to a past or current cycle are
// no-ops, and the clock is monotonic across arbitrary interleavings.
func TestRunToNeverRewinds(t *testing.T) {
	p, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	submitAll(t, p, fastpathTasks())
	p.RunTo(500)
	if p.Now() != 500 {
		t.Fatalf("RunTo(500) left the clock at %d", p.Now())
	}
	p.RunTo(100)
	if p.Now() != 500 {
		t.Fatalf("RunTo(100) rewound the clock to %d", p.Now())
	}
	p.RunTo(500)
	if p.Now() != 500 {
		t.Fatalf("RunTo(now) moved the clock to %d", p.Now())
	}
	p.RunOut()
	end := p.Now()
	p.RunTo(end - 1)
	if p.Now() != end {
		t.Fatalf("RunTo(end-1) rewound the clock to %d", p.Now())
	}
	if p.Idle() {
		// Drained of events but blocked heads may remain; StepTo must
		// also refuse to rewind.
		p.StepTo(end - 1)
		if p.Now() != end {
			t.Fatalf("StepTo(end-1) rewound the clock to %d", p.Now())
		}
	}
}

// TestNextEventConsistency: NextEvent must never be in the past, and
// stepping straight to it must let some unit make progress — running to
// just before it must not change any statistic other than per-cycle
// stall counters.
func TestNextEventConsistency(t *testing.T) {
	p, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	submitAll(t, p, fastpathTasks())
	for i := 0; i < 10000; i++ {
		next, ok := p.NextEvent()
		if !ok {
			break
		}
		if next < p.Now() {
			t.Fatalf("NextEvent %d is before cycle %d", next, p.Now())
		}
		p.RunTo(next)
		p.Step()
	}
	if _, ok := p.NextEvent(); ok {
		t.Fatal("10000 events without draining a 30-task trace")
	}
	// All tasks registered; none finished, so nothing completed yet.
	if got := p.Stats().TasksAdmitted; got == 0 {
		t.Fatal("no task admitted")
	}
}

// TestRunOutDrains: after RunOut the model reports no further events,
// and the ready store holds every dependence-free task.
func TestRunOutDrains(t *testing.T) {
	p, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := p.Submit(uint32(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	p.RunOut()
	if _, ok := p.NextEvent(); ok {
		t.Fatal("RunOut left events pending")
	}
	if got := p.ReadyCount(); got != 5 {
		t.Fatalf("RunOut readied %d of 5 tasks", got)
	}
}
