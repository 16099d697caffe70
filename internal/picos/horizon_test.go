package picos

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/trace"
)

// zeroPipeConfig is the default build with every pipe and hop at 0: a
// DCT's wake can then be routable in the very cycle it is sent, so the
// arbiter must step in a cycle another unit fed it.
func zeroPipeConfig() Config {
	cfg := DefaultConfig()
	tm := &cfg.Timing
	tm.GWPipe, tm.GWFinPipe, tm.TRSPipe, tm.DCTPipe, tm.TSPipe, tm.ArbHop, tm.ShardHop = 0, 0, 0, 0, 0, 0, 0
	return cfg
}

// keysTasks returns n tasks mixing every kind of traffic a key has to
// follow: producer/consumer chains on eight addresses (statuses, wake
// chains, version recycles), dependence-free tasks, wide tasks on fresh
// addresses that drain VM credits, TM slots and the VM itself, and
// writers of twelve direct-hash set-0 addresses that saturate that set
// (DM conflicts, parked and stalled dependences).
func keysTasks(n int) []trace.Task {
	tasks := make([]trace.Task, n)
	for i := range tasks {
		t := &tasks[i]
		t.ID = uint32(i)
		chain := 0x1004 + uint64(i/4%8)<<10
		switch {
		case i%4 == 0:
			t.Deps = []trace.Dep{{Addr: chain, Dir: trace.InOut}}
		case i%8 == 5:
			t.Deps = []trace.Dep{{Addr: chain, Dir: trace.In}}
		case i%4 == 2:
			for k := 0; k < 12; k++ {
				t.Deps = append(t.Deps, trace.Dep{Addr: 0x100000 + uint64(i*12+k)<<2, Dir: trace.Out})
			}
		case i%4 == 3:
			t.Deps = []trace.Dep{{Addr: sameSetAddr(i / 4 % 12), Dir: trace.InOut}}
		}
	}
	return tasks
}

// checkKeys fails unless every unit's horizon key equals its
// nextEvent(): a later key is an event the fast path would sleep
// through, an earlier one a step that cannot act. (It marks itself a
// helper only on failure: t.Helper costs more than the whole check.)
func checkKeys(t *testing.T, p *Picos, after string) {
	check := func(unit string, i int, hid int32, next uint64) {
		if key := p.hkey[hid]; key != next {
			t.Helper()
			t.Fatalf("cycle %d, after %s: %s%d key %d, nextEvent %d", p.Now(), after, unit, i, key, next)
		}
	}
	check("gw", 0, p.gw.hid, p.gw.nextEvent())
	for i, u := range p.trs {
		check("trs", i, u.hid, u.nextEvent())
	}
	for i, u := range p.dct {
		check("dct", i, u.hid, u.nextEvent())
	}
	check("ts", 0, p.ts.hid, p.ts.nextEvent())
	check("arb", 0, p.arb.hid, p.arb.nextEvent())
}

// driveKeys runs tasks through p one cycle at a time, alternating Step
// with RunTo(now+1), trickling submissions in and holding every popped
// task hold cycles, and checks the keys after each call that can move
// one. It returns once every task finished or was refused, and fails if
// that takes longer than limit cycles.
func driveKeys(t *testing.T, p *Picos, tasks []trace.Task, hold, limit uint64) {
	t.Helper()
	type run struct {
		until uint64
		h     TaskHandle
	}
	var running []run // in finish order: every task runs hold cycles
	submitted, finished := 0, 0
	for i := 0; ; i++ {
		now := p.Now()
		if now >= limit {
			t.Fatalf("not drained by cycle %d: %d submitted, %d finished", limit, submitted, finished)
		}
		for k := 0; k < 3 && submitted < len(tasks) && i%4 == 0; k++ {
			if err := p.Submit(tasks[submitted].ID, tasks[submitted].Deps); err != nil {
				t.Fatal(err)
			}
			submitted++
			checkKeys(t, p, "Submit")
		}
		for len(running) > 0 && running[0].until <= now {
			p.NotifyFinish(running[0].h)
			running = running[1:]
			finished++
			checkKeys(t, p, "NotifyFinish")
		}
		for {
			rt, ok := p.PopReady()
			if !ok {
				break
			}
			running = append(running, run{until: now + hold, h: rt.Handle})
			checkKeys(t, p, "PopReady")
		}
		refused := 0
		if f := p.cfg.Faults; f != nil {
			refused = len(f.RefusedIDs)
		}
		if submitted == len(tasks) && finished+refused == len(tasks) && p.Idle() {
			return
		}
		if i%3 == 0 {
			p.Step()
			checkKeys(t, p, "Step")
		} else {
			p.RunTo(now + 1)
			checkKeys(t, p, "RunTo")
		}
	}
}

// TestHorizonKeysExact: the horizon keys are pushed, not polled, so they
// must equal every unit's nextEvent() after each call that can move
// one — Step, RunTo, Submit, NotifyFinish and PopReady — across builds
// that block the GW, stall and park DCT dependences, shard the fabric,
// zero the pipes and inject faults under degrade recovery. Each row also
// pins that its run reached the state it is there for.
func TestHorizonKeysExact(t *testing.T) {
	slots := DefaultConfig()
	slots.Design = DM8Way
	slots.Admission = AdmitSlotsOnly
	block := DefaultConfig()
	block.Design = DM8Way
	block.Conflict = ConflictBlock
	sharded := DefaultConfig()
	sharded.NumDCT, sharded.NumTRS = 4, 2
	// lastVMTasks first: a DM-set conflict parked while a registration
	// takes the last VM entry, then the mix under slots-only admission.
	slotsTasks := append(lastVMTasks(), keysTasks(300)...)
	for i := range slotsTasks {
		slotsTasks[i].ID = uint32(i)
	}
	faulty := DefaultConfig()
	plan, err := faults.ParsePlan("trs:stall=2000@cycle3000:trs0+arb:stall=1500@cycle2000+dct:creditleak=1.0@seed5")
	if err != nil {
		t.Fatal(err)
	}

	gwBlocked := func(s *Stats, _ *faults.PicosFaults) bool { return s.GWBlockedCycles > 0 }
	for _, tc := range []struct {
		name    string
		cfg     Config
		faults  bool
		tasks   []trace.Task
		hold    uint64
		reached func(*Stats, *faults.PicosFaults) bool
	}{
		{"default", DefaultConfig(), false, keysTasks(600), 3000, gwBlocked},
		{"slots-8way", slots, false, slotsTasks, 10_000,
			func(s *Stats, _ *faults.PicosFaults) bool { return s.VMStallCycles > 0 && s.DMConflictStallCycles > 0 }},
		{"block", block, false, keysTasks(400), 5000,
			func(s *Stats, _ *faults.PicosFaults) bool { return s.DMConflictStallCycles > 0 }},
		{"sharded", sharded, false, keysTasks(600), 3000, gwBlocked},
		{"zero-pipes", zeroPipeConfig(), false, keysTasks(400), 500,
			func(s *Stats, _ *faults.PicosFaults) bool { return s.WakesRouted > 0 }},
		{"faults-degrade", faulty, true, keysTasks(300), 500,
			func(_ *Stats, f *faults.PicosFaults) bool { return f.Fired && len(f.RefusedIDs) > 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			if tc.faults {
				cfg.Faults = plan.PicosSide(faults.Recovery{Degrade: 2000})
			}
			p, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkKeys(t, p, "New")
			driveKeys(t, p, tc.tasks, tc.hold, 2_000_000)
			if !tc.reached(p.Stats(), cfg.Faults) {
				t.Fatalf("the run never reached the state the row pins: %+v", *p.Stats())
			}
		})
	}
}
