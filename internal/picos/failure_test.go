package picos

import (
	"testing"

	"repro/internal/trace"
)

// TestSubmitRejectsUnrepresentableTasks: more than 15 deps or duplicate
// addresses cannot be stored in the TMX and must be rejected up front.
func TestSubmitRejectsUnrepresentableTasks(t *testing.T) {
	p, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	deps := make([]trace.Dep, trace.MaxDeps+1)
	for i := range deps {
		deps[i] = trace.Dep{Addr: uint64(i+1) * 64, Dir: trace.In}
	}
	if err := p.Submit(0, deps); err == nil {
		t.Fatal("16-dep task accepted")
	}
	if err := p.Submit(0, []trace.Dep{{Addr: 0x40, Dir: trace.In}, {Addr: 0x40, Dir: trace.Out}}); err == nil {
		t.Fatal("duplicate-address task accepted")
	}
	if err := p.Submit(0, deps[:trace.MaxDeps]); err != nil {
		t.Fatalf("15-dep task rejected: %v", err)
	}
}

// TestDrainedDetectsLeak: Drained must flag an unfinished run.
func TestDrainedDetectsLeak(t *testing.T) {
	p, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p.Submit(0, []trace.Dep{{Addr: 0x40, Dir: trace.InOut}})
	for i := 0; i < 200; i++ {
		p.Step()
	}
	// The task is in flight (never executed/finished): Drained must fail.
	if err := p.Drained(); err == nil {
		t.Fatal("Drained accepted a run with an in-flight task")
	}
}

// TestProtocolErrorOnBogusWake: injecting a wake for a nonexistent
// dependence must be counted, not crash.
func TestProtocolErrorOnBogusWake(t *testing.T) {
	p, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Register one real no-dep task so slot 0 exists and is in use.
	p.Submit(0, nil)
	for i := 0; i < 100; i++ {
		p.Step()
	}
	// Inject a wake targeting a VM entry nobody allocated.
	p.arb.route(arbMsg{kind: arbWake, body: depStatusPkt{task: TaskHandle{TRS: 0, Slot: 0}, vm: VMAddr{DCT: 0, Idx: 99}}}, p.now+1)
	for i := 0; i < 100; i++ {
		p.Step()
	}
	if p.stats.ProtocolErrors == 0 {
		t.Fatal("bogus wake not detected")
	}
}

// TestProtocolErrorOnBogusRelease: releasing a free VM entry must be
// counted as a protocol error.
func TestProtocolErrorOnBogusRelease(t *testing.T) {
	p, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p.arb.route(arbMsg{kind: arbFin, body: depStatusPkt{task: TaskHandle{}, vm: VMAddr{DCT: 0, Idx: 3}}}, p.now+1)
	for i := 0; i < 100; i++ {
		p.Step()
	}
	if p.stats.ProtocolErrors == 0 {
		t.Fatal("bogus release not detected")
	}
}

// TestNoProgressWithoutWorkers: with nobody executing, the accelerator
// must reach a stable idle state (ready tasks parked in the TS) rather
// than spin or wedge internally.
func TestNoProgressWithoutWorkers(t *testing.T) {
	p, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		p.Submit(uint32(i), nil)
	}
	for i := 0; i < 5000; i++ {
		p.Step()
	}
	if !p.Idle() {
		t.Fatal("accelerator not idle after processing all submissions")
	}
	if p.ReadyCount() != 10 {
		t.Fatalf("ready count = %d, want 10", p.ReadyCount())
	}
	if p.InFlight() != 10 {
		t.Fatalf("in-flight = %d, want 10", p.InFlight())
	}
}

// TestStepToNeverRewinds: fast-forward must be monotonic.
func TestStepToNeverRewinds(t *testing.T) {
	p, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p.StepTo(100)
	if p.Now() != 100 {
		t.Fatalf("now = %d", p.Now())
	}
	p.StepTo(50)
	if p.Now() != 100 {
		t.Fatal("StepTo rewound the clock")
	}
}

// TestBusySnapshot: Busy() must report per-unit counters after a run.
func TestBusySnapshot(t *testing.T) {
	tr := simpleTrace([][]trace.Dep{
		{{Addr: 0x40, Dir: trace.Out}},
		{{Addr: 0x40, Dir: trace.In}},
	}, 10)
	r := runTrace(t, tr, DefaultConfig(), 1)
	r.verify(t, tr)
	b := r.p.Busy()
	if b.GW == 0 || len(b.TRS) != 1 || b.TRS[0] == 0 || len(b.DCT) != 1 || b.DCT[0] == 0 || b.TS == 0 {
		t.Fatalf("busy counters not populated: %+v", b)
	}
}
