package hil

import (
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/sched"
	"repro/internal/synth"
	"repro/internal/trace"
)

// schedTestTraces returns the workloads the grant-determinism suite
// runs: a kinded real app (heat's gs kernel, so affinity and locality
// have a kind to bind to) and a synthetic capacity case (unkinded, deep
// ready queues).
func schedTestTraces(t *testing.T) []*trace.Trace {
	t.Helper()
	heat, err := apps.Generate(apps.Heat, 512, 64)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := synth.Case(2)
	if err != nil {
		t.Fatal(err)
	}
	return []*trace.Trace{heat.Trace, c2}
}

func mustClasses(t *testing.T, spec string) sched.Classes {
	t.Helper()
	c, err := sched.Parse(spec)
	if err != nil {
		t.Fatalf("parse %q: %v", spec, err)
	}
	return c
}

// sameSchedule asserts two results are byte-for-byte the same schedule:
// identical start/finish arrays and identical grant (start) order.
func sameSchedule(t *testing.T, what string, a, b *Result) {
	t.Helper()
	if a.Makespan != b.Makespan {
		t.Errorf("%s: makespan %d vs %d", what, a.Makespan, b.Makespan)
	}
	for i := range a.Start {
		if a.Start[i] != b.Start[i] || a.Finish[i] != b.Finish[i] {
			t.Fatalf("%s: task %d scheduled [%d,%d] vs [%d,%d]",
				what, i, a.Start[i], a.Finish[i], b.Start[i], b.Finish[i])
		}
	}
	for i := range a.Order {
		if a.Order[i] != b.Order[i] {
			t.Fatalf("%s: grant %d went to task %d vs task %d", what, i, a.Order[i], b.Order[i])
		}
	}
}

// TestPoolPathMatchesLegacyFIFO: a single uniform class with stealing
// on is semantically identical to the homogeneous FIFO baseline (one
// class means one queue and no victims), but the pool buffers it
// eagerly — every visible ready task — where the baseline takes one
// ready task per idle worker. Under the default FIFO TS the two
// buffering rules must agree byte-for-byte, on both loops — the
// regression net for the pluggable scheduling refactor.
func TestPoolPathMatchesLegacyFIFO(t *testing.T) {
	for _, tr := range schedTestTraces(t) {
		for _, fast := range []bool{true, false} {
			legacy := DefaultConfig()
			legacy.FastForward = fast
			pool := legacy
			pool.Workers = 0
			pool.Classes = mustClasses(t, "12xcore")
			pool.Steal = true // eager buffering

			rl := mustRun(t, tr, legacy)
			rp := mustRun(t, tr, pool)
			verifyLegal(t, tr, rp)
			sameSchedule(t, tr.Name, rl, rp)
		}
	}
}

// TestGrantDeterminismBothLoops runs every grant policy x steal
// combination on a heterogeneous platform and asserts (a) the schedule
// is legal, (b) the event-driven fast path and the cycle-stepped
// reference loop produce byte-identical schedules, and (c) repeating a
// run reproduces it exactly — grants depend only on the trace and the
// config, never on map order or allocation state.
func TestGrantDeterminismBothLoops(t *testing.T) {
	policies := []sched.Policy{sched.FIFO, sched.LIFO, sched.Priority, sched.Locality}
	for _, tr := range schedTestTraces(t) {
		for _, pol := range policies {
			for _, steal := range []bool{false, true} {
				cfg := DefaultConfig()
				cfg.Workers = 0
				cfg.Classes = mustClasses(t, "6xfast+4xslow:2.0+2xmid:1.5")
				cfg.Sched = pol
				cfg.Steal = steal

				cfg.FastForward = true
				fast := mustRun(t, tr, cfg)
				verifyLegal(t, tr, fast)
				again := mustRun(t, tr, cfg)
				cfg.FastForward = false
				ref := mustRun(t, tr, cfg)

				what := tr.Name + "/" + pol.String()
				if steal {
					what += "+steal"
				}
				sameSchedule(t, what+" (rerun)", fast, again)
				sameSchedule(t, what+" (fast vs ref)", fast, ref)
			}
		}
	}
}

// TestHeteroConfigValidation pins the typed configuration errors of the
// scheduling layer at the hil level: Workers and Classes are mutually
// exclusive, and a class list whose affinities cover none of a trace's
// kinds is rejected instead of wedging.
func TestHeteroConfigValidation(t *testing.T) {
	tr, _ := synth.Case(1)

	both := DefaultConfig() // Workers stays 12
	both.Classes = mustClasses(t, "4xfast+4xslow:2.0")
	if _, err := Run(tr, both); err == nil || !strings.Contains(err.Error(), "both Workers") {
		t.Fatalf("Workers+Classes accepted: %v", err)
	}

	// case1 tasks are unkinded; an affinity-only platform can run none
	// of them.
	uncovered := DefaultConfig()
	uncovered.Workers = 0
	uncovered.Classes = mustClasses(t, "4xa@ghost_kind")
	if _, err := Run(tr, uncovered); err == nil {
		t.Fatal("affinity classes with no eligible tasks accepted")
	}
}

// TestHeteroSlowClassStretch: making every worker slower must stretch
// the makespan, and a platform with some fast workers must beat the
// all-slow one — the basic sanity of per-class service-time scaling.
func TestHeteroSlowClassStretch(t *testing.T) {
	res, err := apps.Generate(apps.Heat, 512, 64)
	if err != nil {
		t.Fatal(err)
	}
	run := func(spec string) uint64 {
		cfg := DefaultConfig()
		cfg.Workers = 0
		cfg.Classes = mustClasses(t, spec)
		return mustRun(t, res.Trace, cfg).Makespan
	}
	base := run("12xcore")
	mixed := run("6xfast+6xslow:2.0")
	slow := run("12xslow:2.0")
	if !(base < mixed && mixed < slow) {
		t.Fatalf("makespans not ordered: uniform %d, mixed %d, all-slow %d", base, mixed, slow)
	}
}
