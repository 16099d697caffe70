//go:build !race

// Allocation-regression locks for the hot path. The race detector
// changes allocation behaviour, so these only build without it (the CI
// race lane runs the same logic through the functional suites).

package picos

import (
	"testing"

	"repro/internal/trace"
)

// driveWorkers is the allocation-free mini-harness the locks below run:
// Reset, submit everything, then execute with a fixed worker set until
// drained, advancing either cycle-by-cycle (Step) or event-by-event
// (NextEvent/RunTo). Every buffer it needs lives in the harness struct,
// so a warm iteration performs zero heap allocations end to end.
type allocHarness struct {
	p     *Picos
	cfg   Config
	tasks []trace.Task
	ws    [4]struct {
		until  uint64
		task   ReadyTask
		active bool
	}
	failed bool
}

func (h *allocHarness) drive(useRunTo bool) {
	if err := h.p.Reset(h.cfg); err != nil {
		h.failed = true
		return
	}
	for i := range h.tasks {
		if h.p.Submit(h.tasks[i].ID, h.tasks[i].Deps) != nil {
			h.failed = true
			return
		}
	}
	for i := range h.ws {
		h.ws[i].active = false
	}
	done := 0
	for done < len(h.tasks) || !h.p.Idle() {
		now := h.p.Now()
		for i := range h.ws {
			if h.ws[i].active && h.ws[i].until <= now {
				h.p.NotifyFinish(h.ws[i].task.Handle)
				h.ws[i].active = false
				done++
			}
		}
		for i := range h.ws {
			if h.ws[i].active {
				continue
			}
			rt, ok := h.p.PopReady()
			if !ok {
				break
			}
			h.ws[i].until = now + h.tasks[rt.ID].Duration
			h.ws[i].task = rt
			h.ws[i].active = true
		}
		if now > 10_000_000 {
			h.failed = true // runaway; surfaced by the caller
			return
		}
		if !useRunTo {
			h.p.Step()
			continue
		}
		// Event-driven advance: the earlier of the accelerator's horizon
		// and the next worker completion.
		target, have := uint64(0), false
		if next, ok := h.p.NextEvent(); ok {
			target, have = next, true
		}
		for i := range h.ws {
			if h.ws[i].active && (!have || h.ws[i].until < target) {
				target, have = h.ws[i].until, true
			}
		}
		if !have {
			h.p.Step() // wedge guard; loop exit condition will fire
			continue
		}
		if target <= now {
			h.p.Step()
		} else {
			h.p.RunTo(target)
		}
	}
}

func newAllocHarness(t *testing.T) *allocHarness {
	t.Helper()
	cfg := DefaultConfig()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &allocHarness{p: p, cfg: cfg, tasks: fastpathTasks()}
}

// TestStepSteadyStateAllocFree locks Picos.Step (plus the surrounding
// Reset/Submit/PopReady/NotifyFinish cycle) at zero steady-state heap
// allocations: after one warm run that grows the FIFOs, a full
// cycle-stepped re-run on a Reset machine must not allocate at all.
func TestStepSteadyStateAllocFree(t *testing.T) {
	h := newAllocHarness(t)
	h.drive(false) // warm: grows queue buffers to their high-water marks
	if avg := testing.AllocsPerRun(20, func() { h.drive(false) }); avg != 0 {
		t.Errorf("cycle-stepped warm run allocates %.1f times; want 0", avg)
	}
	if h.failed {
		t.Fatal("harness failed mid-drive (reset, submit or watchdog)")
	}
	if err := h.p.Drained(); err != nil {
		t.Fatal(err)
	}
}

// TestRunToSteadyStateAllocFree locks the event-driven path — NextEvent
// on the incremental horizon plus RunTo's skip/step batching — at
// zero steady-state heap allocations.
func TestRunToSteadyStateAllocFree(t *testing.T) {
	h := newAllocHarness(t)
	h.drive(true)
	if avg := testing.AllocsPerRun(20, func() { h.drive(true) }); avg != 0 {
		t.Errorf("event-driven warm run allocates %.1f times; want 0", avg)
	}
	if h.failed {
		t.Fatal("harness failed mid-drive (reset, submit or watchdog)")
	}
	if err := h.p.Drained(); err != nil {
		t.Fatal(err)
	}
}
