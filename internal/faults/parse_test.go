package faults

import (
	"errors"
	"testing"
)

func TestParsePlan(t *testing.T) {
	plan, err := ParsePlan("axi:drop=0.01@seed7+worker:failstop=2@cycle50000+dct:slowdown=4x:shard1")
	if err != nil {
		t.Fatalf("ParsePlan: %v", err)
	}
	if len(plan.Clauses) != 3 {
		t.Fatalf("clauses = %d, want 3", len(plan.Clauses))
	}
	drop := plan.Clauses[0]
	if drop.Layer != LayerAXI || drop.Kind != KindDrop || drop.Rate != 0.01 || drop.Seed != 7 {
		t.Errorf("drop clause = %+v", drop)
	}
	stop := plan.Clauses[1]
	if stop.Layer != LayerWorker || stop.Kind != KindFailstop || stop.Worker != 2 || stop.Cycle != 50000 {
		t.Errorf("failstop clause = %+v", stop)
	}
	slow := plan.Clauses[2]
	if slow.Layer != LayerDCT || slow.Kind != KindSlowdown || slow.Factor != 4 || slow.Shard != 1 {
		t.Errorf("slowdown clause = %+v", slow)
	}
}

func TestParsePlanArbGW(t *testing.T) {
	plan, err := ParsePlan("arb:stall=4000@cycle15000+gw:stall=3000@cycle10000")
	if err != nil {
		t.Fatalf("ParsePlan: %v", err)
	}
	arb := plan.Clauses[0]
	if arb.Layer != LayerArb || arb.Kind != KindStall || arb.Delay != 4000 || arb.Cycle != 15000 {
		t.Errorf("arb clause = %+v", arb)
	}
	gw := plan.Clauses[1]
	if gw.Layer != LayerGW || gw.Kind != KindStall || gw.Delay != 3000 || gw.Cycle != 10000 {
		t.Errorf("gw clause = %+v", gw)
	}

	f := plan.PicosSide(Recovery{})
	if f == nil {
		t.Fatal("arb/gw plan produced no picos injector")
	}
	if d := f.ArbStallDelay(14999); d != 0 {
		t.Errorf("arb stall fired before trigger: %d", d)
	}
	if d := f.ArbStallDelay(15000); d != 4000 {
		t.Errorf("arb stall delay = %d, want 4000", d)
	}
	if d := f.ArbStallDelay(15001); d != 0 {
		t.Errorf("one-shot arb stall fired twice: %d", d)
	}
	if d := f.GWStallDelay(20000); d != 3000 {
		t.Errorf("gw stall delay = %d, want 3000", d)
	}
	if d := f.GWStallDelay(20001); d != 0 {
		t.Errorf("one-shot gw stall fired twice: %d", d)
	}
	f.Reset()
	if d := f.ArbStallDelay(15000); d != 4000 {
		t.Errorf("arb stall not re-armed after Reset: %d", d)
	}
	if d := f.GWStallDelay(10000); d != 3000 {
		t.Errorf("gw stall not re-armed after Reset: %d", d)
	}
}

func TestParsePlanEmpty(t *testing.T) {
	plan, err := ParsePlan("")
	if err != nil || !plan.Empty() {
		t.Fatalf("empty plan: %v, %v", plan, err)
	}
}

func TestParsePlanDefaultSeeds(t *testing.T) {
	plan, err := ParsePlan("axi:drop=0.5+axi:dup=0.5")
	if err != nil {
		t.Fatalf("ParsePlan: %v", err)
	}
	if plan.Clauses[0].Seed == 0 || plan.Clauses[0].Seed == plan.Clauses[1].Seed {
		t.Errorf("default seeds not distinct: %d vs %d", plan.Clauses[0].Seed, plan.Clauses[1].Seed)
	}
}

func TestParsePlanErrors(t *testing.T) {
	for _, s := range []string{
		"axi", "axi:", "axi:drop", "axi:drop=", "axi:drop=2", "axi:drop=-1",
		"axi:drop=NaN", "axi:drop=Inf", "axi:drop=0.1@lunch", "axi:drop=0.1:shard0",
		"axi:delay=0.1", "axi:delay=0.1x0", "bus:drop=0.1", "dct:melt=1",
		"worker:failstop=x", "worker:slowdown=4", "worker:slowdown=1x",
		"dct:slowdown=0x", "trs:stall=0", "trs:stall=5@cycle1:disk0",
		"arb:stall=0", "arb:stall=x", "arb:stall=5@cycle1:trs0",
		"gw:stall=0", "gw:stall=5@cycle1:shard0", "gw:stall=5@cycle1:worker0",
		"arb:drop=0.1", "gw:slowdown=4x",
		"axi:drop=0.1++axi:dup=0.1", "+",
	} {
		if _, err := ParsePlan(s); !errors.Is(err, ErrBadPlan) {
			t.Errorf("ParsePlan(%q) = %v, want ErrBadPlan", s, err)
		}
	}
}

func TestParseRecovery(t *testing.T) {
	r, err := ParseRecovery("retry=3:backoff200+regrant+degrade=10000")
	if err != nil {
		t.Fatalf("ParseRecovery: %v", err)
	}
	want := Recovery{Retry: 3, Backoff: 200, Regrant: true, Degrade: 10000}
	if r != want {
		t.Errorf("recovery = %+v, want %+v", r, want)
	}
	r, err = ParseRecovery("retry=2")
	if err != nil || r.Backoff != DefaultBackoff {
		t.Errorf("retry default backoff = %+v (%v)", r, err)
	}
	if r, err := ParseRecovery(""); err != nil || r != (Recovery{}) {
		t.Errorf("empty recovery = %+v (%v)", r, err)
	}
}

func TestParseRecoveryErrors(t *testing.T) {
	for _, s := range []string{
		"retry", "retry=0", "retry=3:slow", "retry=3:backoff0",
		"regrant=1", "degrade", "degrade=0", "panic", "retry=3+?",
	} {
		if _, err := ParseRecovery(s); !errors.Is(err, ErrBadRecovery) {
			t.Errorf("ParseRecovery(%q) = %v, want ErrBadRecovery", s, err)
		}
	}
}

func TestDrawFloatDeterministic(t *testing.T) {
	for n := uint64(0); n < 100; n++ {
		a, b := drawFloat(7, n), drawFloat(7, n)
		if a != b {
			t.Fatalf("drawFloat(7, %d) unstable: %v vs %v", n, a, b)
		}
		if a < 0 || a >= 1 {
			t.Fatalf("drawFloat(7, %d) = %v out of [0,1)", n, a)
		}
	}
}

func TestPicosSide(t *testing.T) {
	plan, err := ParsePlan("dct:vmleak=1@seed3:shard1+trs:stall=100@cycle50")
	if err != nil {
		t.Fatalf("ParsePlan: %v", err)
	}
	f := plan.PicosSide(Recovery{Degrade: 500})
	if f == nil || f.Degrade != 500 {
		t.Fatalf("PicosSide = %+v", f)
	}
	if f.LeakVM(0) {
		t.Error("shard-1 leak clause fired on shard 0")
	}
	if !f.LeakVM(1) {
		t.Error("rate-1.0 leak clause did not fire on shard 1")
	}
	if d := f.StallDelay(0, 49); d != 0 {
		t.Errorf("stall fired before trigger cycle: %d", d)
	}
	if d := f.StallDelay(0, 60); d != 100 {
		t.Errorf("stall delay = %d, want 100", d)
	}
	if d := f.StallDelay(0, 61); d != 0 {
		t.Errorf("one-shot stall fired twice: %d", d)
	}
	if !f.Fired {
		t.Error("Fired not set")
	}
	f.Reset()
	if f.Fired || len(f.RefusedIDs) != 0 {
		t.Errorf("Reset left state: %+v", f)
	}
	if d := f.StallDelay(0, 60); d != 100 {
		t.Errorf("stall not re-armed after Reset: %d", d)
	}

	// An AXI-only plan has no accelerator side.
	axiOnly, err := ParsePlan("axi:drop=0.01")
	if err != nil {
		t.Fatalf("ParsePlan: %v", err)
	}
	if f := axiOnly.PicosSide(Recovery{}); f != nil {
		t.Errorf("axi-only plan produced a picos injector: %+v", f)
	}
}
