package nanos

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/trace"
)

// streamed hides a trace's adapter from trace.AlreadyMaterialized, so
// Run streams it the way it streams a generated source.
type streamed struct{ trace.Source }

// TestStreamWideWindowMatchesRun locks a streamed run to the
// materialized one: an unbounded window (0) or one wider than the whole
// trace never parks the master, so every event fires at the same cycle
// and the streamed aggregates must equal the materialized run's —
// byte-identical makespan, lock time and probes, the probes also
// matching the recorded schedule summarized by sim.Probes.
func TestStreamWideWindowMatchesRun(t *testing.T) {
	for n := 1; n <= 7; n++ {
		tr, err := synth.Case(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 4, 12} {
			want, err := Run(trace.FromTrace(tr), Config{Workers: w})
			if err != nil {
				t.Fatalf("case%d w=%d: %v", n, w, err)
			}
			first, thr := sim.Probes(want.Start)
			if want.FirstStart != first || want.ThrTask != thr {
				t.Fatalf("case%d w=%d: Run probes %d/%.3f, schedule says %d/%.3f",
					n, w, want.FirstStart, want.ThrTask, first, thr)
			}
			for _, win := range []int{0, len(tr.Tasks) + 1} {
				got, err := Run(streamed{trace.FromTrace(tr)}, Config{Workers: w, Window: win})
				if err != nil {
					t.Fatalf("case%d w=%d window %d: %v", n, w, win, err)
				}
				if got.Start != nil || got.Finish != nil {
					t.Fatalf("case%d w=%d window %d: streamed run recorded a schedule", n, w, win)
				}
				got.Start, got.Finish = want.Start, want.Finish
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("case%d w=%d window %d: stream %+v, want %+v", n, w, win, got, want)
				}
			}
		}
	}
}

// TestStreamBoundedWindow checks the backpressured regime: a narrow
// window completes, is deterministic, and can only delay work — the
// makespan is monotonically no better than the unbounded run's.
func TestStreamBoundedWindow(t *testing.T) {
	res, err := apps.Generate(apps.Cholesky, 1024, 128)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	base, err := Run(trace.FromTrace(tr), Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	prev := uint64(0)
	for _, win := range []int{1, 2, 8, 64} {
		a, err := Run(trace.FromTrace(tr), Config{Workers: 4, Window: win})
		if err != nil {
			t.Fatalf("window %d: %v", win, err)
		}
		b, err := Run(trace.FromTrace(tr), Config{Workers: 4, Window: win})
		if err != nil {
			t.Fatalf("window %d rerun: %v", win, err)
		}
		if a.Makespan != b.Makespan || a.LockBusy != b.LockBusy {
			t.Fatalf("window %d nondeterministic: %d/%d vs %d/%d",
				win, a.Makespan, a.LockBusy, b.Makespan, b.LockBusy)
		}
		if a.Makespan < base.Makespan {
			t.Fatalf("window %d beat the unbounded run: %d < %d", win, a.Makespan, base.Makespan)
		}
		if prev != 0 && a.Makespan > prev {
			t.Fatalf("widening the window to %d slowed the run: %d > %d", win, a.Makespan, prev)
		}
		prev = a.Makespan
	}
}

// TestStreamRestrictions pins the typed rejection: bottom-level
// priority scheduling needs the whole graph, which the scheduling layer
// refuses for a stream under any window.
func TestStreamRestrictions(t *testing.T) {
	tr, err := synth.Case(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, win := range []int{0, 8} {
		if _, err := Run(streamed{trace.FromTrace(tr)}, Config{Workers: 2, Window: win, Sched: sched.Priority}); !errors.Is(err, sched.ErrNoBottomLevels) {
			t.Fatalf("priority, window %d: got %v, want sched.ErrNoBottomLevels", win, err)
		}
	}
}

// TestStreamEmptySource mirrors TestErrors' empty-trace case on the
// streaming path.
func TestStreamEmptySource(t *testing.T) {
	r, err := Run(trace.FromTrace(&trace.Trace{}), Config{Workers: 2, Window: 4})
	if err != nil || r.Makespan != 0 {
		t.Fatalf("empty stream: %v %+v", err, r)
	}
}
