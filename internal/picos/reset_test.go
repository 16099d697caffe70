package picos

import (
	"testing"

	"repro/internal/trace"
)

// runTraceOn drives an existing Picos instance through a complete trace,
// exactly like runTrace but without building the machine — the reuse
// suite's way of exercising Reset.
func runTraceOn(t *testing.T, p *Picos, tr *trace.Trace, workers int) *runResult {
	t.Helper()
	for i := range tr.Tasks {
		if err := p.Submit(tr.Tasks[i].ID, tr.Tasks[i].Deps); err != nil {
			t.Fatal(err)
		}
	}
	r := &runResult{
		p:      p,
		start:  make([]uint64, len(tr.Tasks)),
		finish: make([]uint64, len(tr.Tasks)),
	}
	type worker struct {
		until  uint64
		task   ReadyTask
		active bool
	}
	ws := make([]worker, workers)
	done := 0
	lastProgress := uint64(0)
	const watchdog = 50_000_000
	for done < len(tr.Tasks) || !p.Idle() {
		now := p.Now()
		for i := range ws {
			if ws[i].active && ws[i].until <= now {
				p.NotifyFinish(ws[i].task.Handle)
				ws[i].active = false
				done++
				lastProgress = now
			}
		}
		for i := range ws {
			if ws[i].active {
				continue
			}
			rt, ok := p.PopReady()
			if !ok {
				break
			}
			dur := tr.Tasks[rt.ID].Duration
			ws[i] = worker{until: now + dur, task: rt, active: true}
			r.start[rt.ID] = now
			r.finish[rt.ID] = now + dur
			r.order = append(r.order, rt.ID)
			lastProgress = now
		}
		if p.Idle() && p.ReadyCount() == 0 {
			next := uint64(0)
			for i := range ws {
				if ws[i].active && (next == 0 || ws[i].until < next) {
					next = ws[i].until
				}
			}
			if next > now+1 {
				p.StepTo(next)
				continue
			}
		}
		p.Step()
		if p.Now()-lastProgress > watchdog {
			t.Fatalf("watchdog: no progress since cycle %d (now %d, done %d/%d)",
				lastProgress, p.Now(), done, len(tr.Tasks))
		}
	}
	return r
}

// sameRun asserts two runs produced identical schedules and counters.
func sameRun(t *testing.T, label string, fresh, reused *runResult) {
	t.Helper()
	if *fresh.p.Stats() != *reused.p.Stats() {
		t.Errorf("%s: stats diverge\nfresh:  %+v\nreused: %+v", label, *fresh.p.Stats(), *reused.p.Stats())
	}
	if len(fresh.order) != len(reused.order) {
		t.Fatalf("%s: executed %d vs %d tasks", label, len(fresh.order), len(reused.order))
	}
	for i := range fresh.order {
		if fresh.order[i] != reused.order[i] {
			t.Fatalf("%s: start order diverges at %d: task %d vs %d", label, i, fresh.order[i], reused.order[i])
		}
	}
	for i := range fresh.start {
		if fresh.start[i] != reused.start[i] || fresh.finish[i] != reused.finish[i] {
			t.Fatalf("%s: schedule diverges for task %d: [%d,%d] vs [%d,%d]", label, i,
				fresh.start[i], fresh.finish[i], reused.start[i], reused.finish[i])
		}
	}
}

// resetConfigs is the cross-shape matrix Reset must handle: same config,
// policy flip, design change (different VM capacity and DM ways), a
// multi-unit future architecture (different unit and horizon shapes), and
// sharded fabrics whose per-shard DM/VM partitions grow and shrink with
// the shard count (8 shards of 8 sets back to one shard of 64, and a
// shard-count change combined with a ways change).
func resetConfigs() []Config {
	return []Config{
		{},
		{Policy: SchedLIFO},
		{Design: DM16Way},
		{Design: DM8Way, Admission: AdmitSlotsOnly},
		{NumTRS: 4, NumDCT: 4},
		{NumDCT: 8, ShardHash: ShardLowBits},
		{NumDCT: 2, Design: DM16Way},
	}
}

// TestResetEquivalentToFresh: a Reset machine must behave exactly like a
// freshly built one, across every config-shape transition in both
// directions — the contract that makes warm engine pools safe.
func TestResetEquivalentToFresh(t *testing.T) {
	tr := &trace.Trace{Name: "reset-mix", Tasks: fastpathTasks()}
	cfgs := resetConfigs()
	reused, err := New(cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Walk the configs twice so every transition (including back to the
	// first shape) is exercised on the same reused machine.
	for round := 0; round < 2; round++ {
		for ci, cfg := range cfgs {
			if err := reused.Reset(cfg); err != nil {
				t.Fatalf("round %d cfg %d: Reset: %v", round, ci, err)
			}
			fresh := runTrace(t, tr, cfg, 4)
			got := runTraceOn(t, reused, tr, 4)
			label := cfg.Design.String() + "/" + cfg.Policy.String()
			sameRun(t, label, fresh, got)
			if err := reused.Drained(); err != nil {
				t.Fatalf("%s: reused machine not drained: %v", label, err)
			}
		}
	}
}

// TestResetCleansMidRunState: Reset must scrub a machine abandoned mid-
// run — queues holding packets, TM/VM/DM entries live, busy timers
// running — back to fresh behaviour. This is the wedge-recovery
// guarantee at the accelerator level.
func TestResetCleansMidRunState(t *testing.T) {
	tasks := fastpathTasks()
	tr := &trace.Trace{Name: "reset-abandon", Tasks: tasks}
	cfg := Config{}
	reused, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, abandonAt := range []uint64{1, 37, 400, 4000} {
		// Drive partway: tasks in flight, ready store populated, nothing
		// ever finished.
		for i := range tasks {
			if err := reused.Submit(tasks[i].ID, tasks[i].Deps); err != nil {
				t.Fatal(err)
			}
		}
		reused.RunTo(abandonAt)
		if err := reused.Reset(cfg); err != nil {
			t.Fatalf("abandon@%d: Reset: %v", abandonAt, err)
		}
		if reused.Now() != 0 || reused.InFlight() != 0 || reused.ReadyCount() != 0 {
			t.Fatalf("abandon@%d: Reset left state: now %d, inflight %d, ready %d",
				abandonAt, reused.Now(), reused.InFlight(), reused.ReadyCount())
		}
		fresh := runTrace(t, tr, cfg, 4)
		got := runTraceOn(t, reused, tr, 4)
		sameRun(t, "after-abandon", fresh, got)
		fresh.verify(t, tr)
		got.verify(t, tr)
	}
}
