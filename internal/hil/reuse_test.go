package hil

import (
	"encoding/json"
	"testing"

	"repro/internal/apps"
	"repro/internal/picos"
	"repro/internal/synth"
	"repro/internal/trace"
)

// reuseCase is one (trace, config) point of the platform-reuse matrix.
type reuseCase struct {
	name string
	tr   *trace.Trace
	cfg  Config
}

func reuseMatrix(t *testing.T) []reuseCase {
	t.Helper()
	heat, err := apps.Generate(apps.Heat, 768, 64)
	if err != nil {
		t.Fatal(err)
	}
	case2, err := synth.Case(2)
	if err != nil {
		t.Fatal(err)
	}
	case4, err := synth.Case(4)
	if err != nil {
		t.Fatal(err)
	}
	var cases []reuseCase
	for _, mode := range []Mode{HWOnly, HWComm, FullSystem} {
		for _, tc := range []struct {
			name string
			tr   *trace.Trace
		}{{"heat", heat.Trace}, {"case2", case2}, {"case4", case4}} {
			cfg := DefaultConfig()
			cfg.Mode = mode
			cases = append(cases, reuseCase{name: tc.name + "/" + mode.String(), tr: tc.tr, cfg: cfg})
		}
	}
	// Shape changes between consecutive runs: LIFO scheduling, the
	// 16-way design (bigger VM/DM), a future architecture, and the
	// cycle-stepped loop.
	lifo := DefaultConfig()
	lifo.Picos.Policy = picos.SchedLIFO
	cases = append(cases, reuseCase{name: "case2/lifo", tr: case2, cfg: lifo})
	w16 := DefaultConfig()
	w16.Picos.Design = picos.DM16Way
	cases = append(cases, reuseCase{name: "case2/16way", tr: case2, cfg: w16})
	multi := DefaultConfig()
	multi.Picos.NumTRS, multi.Picos.NumDCT = 4, 4
	cases = append(cases, reuseCase{name: "case2/4trs4dct", tr: case2, cfg: multi})
	ref := DefaultConfig()
	ref.FastForward = false
	cases = append(cases, reuseCase{name: "case2/cyclestep", tr: case2, cfg: ref})
	return cases
}

// wedgeCase returns the case7-on-direct-hash deadlock: the run that
// leaves the most hostile state behind — stalled queues, a blocked
// gateway, live TM/VM/DM entries — for the next Reset to clean.
func wedgeCase(t *testing.T) reuseCase {
	t.Helper()
	tr, err := synth.Case(7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Picos.Design = picos.DM8Way
	cfg.Watchdog = 500_000
	return reuseCase{name: "case7/8way-wedge", tr: tr, cfg: cfg}
}

func resultJSON(t *testing.T, res *Result) string {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestPlatformReuseEquivalence: one runner re-driven across the whole
// matrix must produce byte-identical Results to a fresh runner per run
// — with the case7+8way deadlock interleaved before every point, so
// each reset starts from a wedged machine and still comes out clean.
func TestPlatformReuseEquivalence(t *testing.T) {
	reused := new(runner)
	wedge := wedgeCase(t)
	for _, c := range reuseMatrix(t) {
		wres, err := reused.drive(trace.FromTrace(wedge.tr), wedge.cfg)
		if err != nil {
			t.Fatalf("%s: wedge run errored: %v", wedge.name, err)
		}
		if !wres.Wedged {
			t.Fatalf("%s: expected a wedged result", wedge.name)
		}
		fres, err := new(runner).drive(trace.FromTrace(c.tr), c.cfg)
		if err != nil {
			t.Fatalf("%s: fresh run: %v", c.name, err)
		}
		rres, err := reused.drive(trace.FromTrace(c.tr), c.cfg)
		if err != nil {
			t.Fatalf("%s: reused run: %v", c.name, err)
		}
		if fj, rj := resultJSON(t, fres), resultJSON(t, rres); fj != rj {
			t.Errorf("%s: reused platform diverges from fresh\nfresh:  %s\nreused: %s", c.name, fj, rj)
		}
	}
}
