package hil

import (
	"errors"
	"testing"

	"repro/internal/apps"
	"repro/internal/patterns"
	"repro/internal/sched"
	"repro/internal/synth"
	"repro/internal/trace"
)

// streamModes are the three integration modes the streaming driver
// supports; the window retires at different points in each (worker
// finish, permanent link loss, refusal), so every equivalence below
// runs all three.
var streamModes = []Mode{HWOnly, HWComm, FullSystem}

func gridSource(t *testing.T, query string) trace.Source {
	t.Helper()
	p, err := patterns.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	src, err := patterns.Generate(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// aggEqual compares the aggregate surface two streaming runs share.
func aggEqual(a, b *Result) bool {
	return a.Makespan == b.Makespan && a.Baseline == b.Baseline &&
		a.FirstStart == b.FirstStart && a.ThrTask == b.ThrTask &&
		a.Stats == b.Stats && a.Wedged == b.Wedged && a.TimedOut == b.TimedOut
}

// TestStreamWideWindowMatchesRun: a window at least as wide as the whole
// stream never exerts backpressure, so the streamed aggregates must be
// byte-identical to the materialized run's on every mode — the streaming
// driver is the same machine with a different feed.
func TestStreamWideWindowMatchesRun(t *testing.T) {
	const query = "stencil_1d?width=16&steps=12"
	p, err := patterns.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	tr := patternTrace(t, p)
	for _, mode := range streamModes {
		cfg := DefaultConfig()
		cfg.Mode = mode
		want := mustRun(t, tr, cfg)

		cfg.Window = len(tr.Tasks) + 1
		got, err := RunStream(gridSource(t, query), cfg)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if !aggEqual(got, want) {
			t.Fatalf("%s: stream %+v, want %+v", mode, got, want)
		}
		if got.Start != nil || got.Finish != nil || got.Order != nil {
			t.Fatalf("%s: streamed result carries schedule arrays", mode)
		}
	}
}

// TestStreamFastEqualsRef: the event-driven fast path and the per-cycle
// reference loop must agree on every streamed aggregate, window by
// window — including narrow windows where the feed itself backpressures.
func TestStreamFastEqualsRef(t *testing.T) {
	const query = "stencil_1d?width=16&steps=12"
	for _, mode := range streamModes {
		for _, win := range []int{2, 4, 64, 1024} {
			cfg := DefaultConfig()
			cfg.Mode = mode
			cfg.Window = win
			fast, err := RunStream(gridSource(t, query), cfg)
			if err != nil {
				t.Fatalf("%s w=%d fast: %v", mode, win, err)
			}
			cfg.FastForward = false
			ref, err := RunStream(gridSource(t, query), cfg)
			if err != nil {
				t.Fatalf("%s w=%d ref: %v", mode, win, err)
			}
			if !aggEqual(fast, ref) {
				t.Fatalf("%s w=%d: fast %+v, ref %+v", mode, win, fast, ref)
			}
		}
	}
}

// TestStreamNarrowWindowBackpressures: a window narrower than the
// machine's natural concurrency must slow the run down (the feed stalls
// behind unretired descriptors), and can never speed it up.
func TestStreamNarrowWindowBackpressures(t *testing.T) {
	const query = "stencil_1d?width=16&steps=12"
	cfg := DefaultConfig()
	cfg.Window = 1 << 20
	wide, err := RunStream(gridSource(t, query), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Window = 4
	narrow, err := RunStream(gridSource(t, query), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if narrow.Makespan <= wide.Makespan {
		t.Fatalf("window 4 makespan %d not worse than wide %d", narrow.Makespan, wide.Makespan)
	}
}

// TestStreamRestrictions pins the streaming driver's one refusal and
// the window's zero value: Window 0 streams unbounded — a generated
// stream then matches the materialized run — while bottom-level
// priorities need the whole graph and are refused by the scheduling
// layer, with its typed sentinel.
func TestStreamRestrictions(t *testing.T) {
	const query = "stencil_1d?width=16&steps=12"
	p, err := patterns.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	tr := patternTrace(t, p)
	cfg := DefaultConfig()
	want := mustRun(t, tr, cfg)
	got, err := RunStream(gridSource(t, query), cfg)
	if err != nil {
		t.Fatalf("window 0: %v", err)
	}
	if !aggEqual(got, want) {
		t.Fatalf("window 0: stream %+v, want %+v", got, want)
	}

	cfg.Window = 8
	cfg.Sched = sched.Priority
	if _, err := RunStream(trace.FromTrace(tr), cfg); !errors.Is(err, sched.ErrNoBottomLevels) {
		t.Fatalf("priority: got %v, want sched.ErrNoBottomLevels", err)
	}
}

// TestStreamDegrade: degrade recovery refuses blocked heads inside the
// accelerator, which records each refused ID so the runner retires the
// descriptor. Leaked credits starve admission, so refusals happen
// throughout the run; a window wider than the trace must then reproduce
// the unbounded run's aggregates and refusal count, and a narrow one
// must still drain.
func TestStreamDegrade(t *testing.T) {
	res, err := apps.Generate(apps.Cholesky, 2048, 128)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	cfg := DefaultConfig()
	cfg.Workers = 8
	cfg.Watchdog = 2_000_000_000
	cfg.Faults = parsePlan(t, "dct:creditleak=1.0@seed5")
	cfg.Recovery = parseRecovery(t, "degrade=20000")
	want := mustRun(t, tr, cfg)
	if want.RefusedTasks == 0 {
		t.Fatal("the credit leak should make degrade refuse tasks")
	}
	for _, win := range []int{len(tr.Tasks) + 1, 16} {
		cfg.Window = win
		got, err := RunStream(trace.FromTrace(tr), cfg)
		if err != nil {
			t.Fatalf("window %d: %v", win, err)
		}
		if got.Wedged || got.TimedOut || got.RefusedTasks == 0 {
			t.Fatalf("window %d: wedged=%v timedOut=%v refused=%d", win, got.Wedged, got.TimedOut, got.RefusedTasks)
		}
		if win > len(tr.Tasks) && (!aggEqual(got, want) || got.RefusedTasks != want.RefusedTasks) {
			t.Fatalf("window %d: stream %+v, want %+v", win, got, want)
		}
	}
}

// TestStreamWrappedTraceEquivalence: streaming a wrapped materialized
// trace (the back-compat bridge every existing workload uses) matches
// the direct Run on all modes under a wide window, synthetic cases
// included — the adapters add nothing.
func TestStreamWrappedTraceEquivalence(t *testing.T) {
	for n := 1; n <= 7; n++ {
		tr, err := synth.Case(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range streamModes {
			cfg := DefaultConfig()
			cfg.Mode = mode
			want := mustRun(t, tr, cfg)
			cfg.Window = len(tr.Tasks) + 1
			got, err := RunStream(trace.FromTrace(tr), cfg)
			if err != nil {
				t.Fatalf("case%d %s: %v", n, mode, err)
			}
			if !aggEqual(got, want) {
				t.Fatalf("case%d %s: stream %+v, want %+v", n, mode, got, want)
			}
		}
	}
}

// stragglerSource streams one long task followed by short independent
// ones. It is not a *trace.TraceSource, so the platform keeps its live
// descriptors in the live table, whose length and capacity it samples at
// every pull.
type stragglerSource struct {
	n, next         int
	pl              *Platform
	maxLive, maxCap int
}

func (s *stragglerSource) Name() string         { return "straggler" }
func (s *stragglerSource) Kinds() []string      { return nil }
func (s *stragglerSource) SerialCycles() uint64 { return 0 }
func (s *stragglerSource) RefSeqCycles() uint64 { return 0 }
func (s *stragglerSource) Rewind() error        { s.next, s.maxLive, s.maxCap = 0, 0, 0; return nil }

func (s *stragglerSource) Next() (trace.Task, bool) {
	if s.next == s.n {
		return trace.Task{}, false
	}
	s.maxLive = max(s.maxLive, s.pl.r.live.Len())
	s.maxCap = max(s.maxCap, s.pl.r.live.Cap())
	t := trace.Task{ID: uint32(s.next), Duration: 100,
		Deps: []trace.Dep{{Addr: uint64(s.next+1) << 12, Dir: trace.Out}}}
	if s.next == 0 {
		t.Duration = 10_000_000
	}
	s.next++
	return t, true
}

// TestStreamStragglerWindow: a straggler pins one window slot for 10^7
// cycles while 2,000 short tasks stream through the rest. The live
// table is keyed by task, not by stream position, so it never holds
// more than Window descriptors, and its capacity stays within 4 x
// Window, however far the stream runs ahead of its oldest live task;
// the run completes, and the fast loop matches the reference on the
// aggregates.
func TestStreamStragglerWindow(t *testing.T) {
	const n = 2001
	for _, mode := range streamModes {
		var res [2]*Result
		for i, fast := range []bool{true, false} {
			cfg := DefaultConfig()
			cfg.Mode = mode
			cfg.Window = 8
			cfg.FastForward = fast
			pl := NewPlatform()
			src := &stragglerSource{n: n, pl: pl}
			r, err := pl.RunStream(src, cfg)
			if err != nil {
				t.Fatalf("%s fast=%v: %v", mode, fast, err)
			}
			if r.Wedged || r.TimedOut || r.Stats.TasksCompleted != n || r.Makespan < 10_000_000 {
				t.Fatalf("%s fast=%v: wedged=%v timedOut=%v completed=%d makespan=%d",
					mode, fast, r.Wedged, r.TimedOut, r.Stats.TasksCompleted, r.Makespan)
			}
			// The pulled task is the only one committed before the next
			// pull, so the table peaks one above its largest sample.
			if src.maxLive+1 > cfg.Window {
				t.Fatalf("%s fast=%v: live table held %d descriptors, window is %d",
					mode, fast, src.maxLive+1, cfg.Window)
			}
			if src.maxCap > 4*cfg.Window {
				t.Fatalf("%s fast=%v: live table grew to %d slots, window is %d",
					mode, fast, src.maxCap, cfg.Window)
			}
			res[i] = r
		}
		if !aggEqual(res[0], res[1]) {
			t.Fatalf("%s: fast %+v, ref %+v", mode, res[0], res[1])
		}
	}
}
