package sim_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/hil"
	"repro/internal/nanos"
	"repro/internal/perfect"
	"repro/internal/picos"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/trace"

	_ "repro/internal/engines"
)

// TestPicosEngineParity: the registry-driven sim.Run must produce
// byte-identical schedules to a direct hil.Run with the equivalent
// config, on every synthetic case and every integration mode.
func TestPicosEngineParity(t *testing.T) {
	modes := []struct {
		engine string
		mode   hil.Mode
	}{
		{"picos-hw", hil.HWOnly},
		{"picos-comm", hil.HWComm},
		{"picos-full", hil.FullSystem},
	}
	for _, m := range modes {
		for c := 1; c <= 7; c++ {
			workload := fmt.Sprintf("case%d", c)
			t.Run(m.engine+"/"+workload, func(t *testing.T) {
				tr, err := synth.Case(c)
				if err != nil {
					t.Fatal(err)
				}
				cfg := hil.DefaultConfig()
				cfg.Mode = m.mode
				want, err := hil.Run(tr, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, err := sim.Run(sim.Spec{Engine: m.engine, Workload: workload})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Start, want.Start) || !reflect.DeepEqual(got.Finish, want.Finish) {
					t.Fatal("schedule differs from direct hil.Run")
				}
				if !reflect.DeepEqual(got.Order, want.Order) {
					t.Fatal("start order differs from direct hil.Run")
				}
				if got.Makespan != want.Makespan || got.Speedup != want.Speedup ||
					got.FirstStart != want.FirstStart || got.ThrTask != want.ThrTask {
					t.Fatalf("aggregates differ: got makespan %d L1st %d, want %d / %d",
						got.Makespan, got.FirstStart, want.Makespan, want.FirstStart)
				}
				if got.Stats == nil || *got.Stats != *want.Stats {
					t.Fatal("stats differ from direct hil.Run")
				}
			})
		}
	}
}

// TestNanosEngineParity: sim's nanos entry vs a direct nanos.Run.
func TestNanosEngineParity(t *testing.T) {
	for c := 1; c <= 7; c++ {
		workload := fmt.Sprintf("case%d", c)
		t.Run(workload, func(t *testing.T) {
			tr, err := synth.Case(c)
			if err != nil {
				t.Fatal(err)
			}
			want, err := nanos.Run(trace.FromTrace(tr), nanos.Config{Workers: sim.DefaultWorkers})
			if err != nil {
				t.Fatal(err)
			}
			got, err := sim.Run(sim.Spec{Engine: "nanos", Workload: workload})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Start, want.Start) || !reflect.DeepEqual(got.Finish, want.Finish) {
				t.Fatal("schedule differs from direct nanos.Run")
			}
			if got.Makespan != want.Makespan || got.LockBusy != want.LockBusy {
				t.Fatalf("aggregates differ: got %d/%d, want %d/%d",
					got.Makespan, got.LockBusy, want.Makespan, want.LockBusy)
			}
		})
	}
}

// TestPerfectEngineParity: sim's perfect entry vs a direct perfect.Run.
func TestPerfectEngineParity(t *testing.T) {
	for c := 1; c <= 7; c++ {
		workload := fmt.Sprintf("case%d", c)
		t.Run(workload, func(t *testing.T) {
			tr, err := synth.Case(c)
			if err != nil {
				t.Fatal(err)
			}
			want, err := perfect.Run(tr, sched.Single(sim.DefaultWorkers))
			if err != nil {
				t.Fatal(err)
			}
			got, err := sim.Run(sim.Spec{Engine: "perfect", Workload: workload})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Start, want.Start) || !reflect.DeepEqual(got.Finish, want.Finish) {
				t.Fatal("schedule differs from direct perfect.Run")
			}
			if got.Makespan != want.Makespan || got.Speedup != want.Speedup {
				t.Fatalf("makespan %d vs %d", got.Makespan, want.Makespan)
			}
		})
	}
}

// TestSpecKnobParity: the spec's string knobs must reach the accelerator
// config — a LIFO 16-way run through the registry matches the same
// direct hil.Run, and differs from the default configuration.
func TestSpecKnobParity(t *testing.T) {
	tr, err := synth.Case(7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := hil.DefaultConfig()
	cfg.Workers = 4
	cfg.Picos.Design = picos.DM16Way
	cfg.Picos.Policy = picos.SchedLIFO
	cfg.Picos.NumTRS = 2
	cfg.Picos.NumDCT = 2
	want, err := hil.Run(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sim.Run(sim.Spec{
		Engine: "picos-hw", Workload: "case7", Workers: 4,
		Design: "16way", Policy: "lifo", NumTRS: 2, NumDCT: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Start, want.Start) {
		t.Fatal("knobbed schedule differs from direct hil.Run")
	}
	def, err := sim.Run(sim.Spec{Engine: "picos-hw", Workload: "case7", Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(def.Start, got.Start) {
		t.Fatal("knobs had no effect: LIFO/16way run matches the default schedule")
	}
}
