package nanos

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/synth"
	"repro/internal/taskgraph"
	"repro/internal/trace"
)

func TestErrors(t *testing.T) {
	tr := &trace.Trace{}
	if _, err := Run(trace.FromTrace(tr), Config{Workers: 0}); err == nil {
		t.Fatal("accepted 0 workers")
	}
	if r, err := Run(trace.FromTrace(tr), Config{Workers: 2}); err != nil || r.Makespan != 0 {
		t.Fatalf("empty trace: %v %+v", err, r)
	}
}

func TestLegalSchedules(t *testing.T) {
	for n := 1; n <= 7; n++ {
		tr, err := synth.Case(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 4, 12} {
			r, err := Run(trace.FromTrace(tr), Config{Workers: w})
			if err != nil {
				t.Fatalf("case%d w=%d: %v", n, w, err)
			}
			g := taskgraph.Build(tr)
			if err := g.CheckSchedule(r.Start, r.Finish); err != nil {
				t.Fatalf("case%d w=%d: %v", n, w, err)
			}
		}
	}
}

func TestOverheadModelShape(t *testing.T) {
	tm := DefaultTiming()
	// Creation constant in #deps and threads (Figure 10 "Creation").
	if tm.CreationOverhead(1) != tm.CreationOverhead(12) {
		t.Fatal("creation overhead should not depend on thread count")
	}
	// Submission grows with deps and with threads.
	if tm.SubmissionOverhead(4, 1) <= tm.SubmissionOverhead(1, 1) {
		t.Fatal("submission overhead must grow with deps")
	}
	if tm.SubmissionOverhead(1, 12) <= tm.SubmissionOverhead(1, 1) {
		t.Fatal("submission overhead must grow with threads")
	}
}

// TestCoarseGrainScales: for coarse tasks the runtime overhead is
// negligible and Nanos must achieve good speedup.
func TestCoarseGrainScales(t *testing.T) {
	res, err := apps.Generate(apps.Cholesky, 2048, 256)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(trace.FromTrace(res.Trace), Config{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if r.Speedup < 3 {
		t.Fatalf("coarse cholesky speedup %.2f, want > 3", r.Speedup)
	}
}

// TestFineGrainCollapses: the Figure 1 signature — at fine granularity
// the software runtime stops scaling; 12 workers must be far below
// linear and not meaningfully better than 4.
func TestFineGrainCollapses(t *testing.T) {
	res, err := apps.Generate(apps.Cholesky, 2048, 32)
	if err != nil {
		t.Fatal(err)
	}
	r12, err := Run(trace.FromTrace(res.Trace), Config{Workers: 12})
	if err != nil {
		t.Fatal(err)
	}
	if r12.Speedup > 8 {
		t.Fatalf("fine-grain cholesky speedup %.2f with 12 workers; overhead model too weak", r12.Speedup)
	}
	if r12.LockBusy == 0 {
		t.Fatal("lock busy time not recorded")
	}
}

// TestKneeAroundEightWorkers: adding workers beyond the knee must yield
// clearly sublinear returns (paper: "Nanos++ RTS scales up to 8 workers
// maximum").
func TestKneeAroundEightWorkers(t *testing.T) {
	res, err := apps.Generate(apps.SparseLu, 2048, 32)
	if err != nil {
		t.Fatal(err)
	}
	r8, err := Run(trace.FromTrace(res.Trace), Config{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	r24, err := Run(trace.FromTrace(res.Trace), Config{Workers: 24})
	if err != nil {
		t.Fatal(err)
	}
	if r24.Speedup > r8.Speedup*1.5 {
		t.Fatalf("speedup kept scaling: 8w %.2f -> 24w %.2f", r8.Speedup, r24.Speedup)
	}
}

func TestDeterminism(t *testing.T) {
	tr, _ := synth.Case(7)
	a, err := Run(trace.FromTrace(tr), Config{Workers: 6})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(trace.FromTrace(tr), Config{Workers: 6})
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || a.LockBusy != b.LockBusy {
		t.Fatalf("nondeterministic: %d/%d vs %d/%d", a.Makespan, a.LockBusy, b.Makespan, b.LockBusy)
	}
}
