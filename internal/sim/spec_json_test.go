package sim_test

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"repro/internal/sim"

	_ "repro/internal/engines"
)

// fullSpec returns a Spec with every field set to a non-zero value, so
// the round-trip test exercises the complete JSON surface. The reflect
// check in TestSpecJSONRoundTrip fails the build-out if a new Spec
// field is added without extending this fixture.
func fullSpec() sim.Spec {
	return sim.Spec{
		Engine:        "picos-hw",
		Workload:      "heat",
		Problem:       1024,
		Block:         128,
		Workers:       8,
		WorkerClasses: "4xfast+4xslow:2.0+1xaccel:0.25@stencil_2d,fft",
		Sched:         "priority",
		Steal:         true,
		Design:        "8way",
		Policy:        "lifo",
		Admission:     "slots",
		NumTRS:        2,
		NumDCT:        4,
		ShardHop:      3,
		NewQDepth:     16,
		RunAhead:      -1,
		Window:        256,
		Watchdog:      1 << 30,
		Faults:        "axi:drop=0.01@seed7+worker:failstop=2@cycle50000",
		Recovery:      "retry=3:backoff200+regrant",
		FastForward:   sim.Bool(false),
	}
}

// TestSpecJSONRoundTrip marshals a fully-populated Spec and checks the
// decode reproduces it exactly — Specs are the sweep serialization
// format, so every knob (including the scheduling-layer WorkerClasses,
// Sched and Steal) must survive the trip.
func TestSpecJSONRoundTrip(t *testing.T) {
	spec := fullSpec()

	// Guard the fixture itself: every exported field must be non-zero,
	// otherwise a freshly added knob silently escapes the round trip.
	v := reflect.ValueOf(spec)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Errorf("fullSpec leaves field %s zero; add it to the fixture", v.Type().Field(i).Name)
		}
	}

	blob, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back sim.Spec
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(spec, back) {
		t.Fatalf("round trip mismatch:\n  in:  %+v\n  out: %+v\n  json: %s", spec, back, blob)
	}
}

// TestSpecJSONOmitEmpty pins the minimal encoding: a default spec
// serializes to just engine+workload, so sweep files stay diffable and
// old JSON (written before the scheduling knobs existed) decodes
// unchanged.
func TestSpecJSONOmitEmpty(t *testing.T) {
	blob, err := json.Marshal(sim.Spec{Engine: "nanos", Workload: "heat"})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	want := `{"engine":"nanos","workload":"heat"}`
	if string(blob) != want {
		t.Fatalf("zero-value spec encodes as %s, want %s", blob, want)
	}
}

// TestWorkersAndClassesConflict checks the typed construction errors:
// setting both Workers and WorkerClasses is rejected by SchedPlan and
// ClassPlan with ErrWorkersAndClasses, and a negative Window by the
// dispatcher with ErrNegativeWindow; both surface through sim.Run for
// every engine.
func TestWorkersAndClassesConflict(t *testing.T) {
	spec := sim.Spec{Workers: 8, WorkerClasses: "4xfast+4xslow:2.0"}

	if _, err := spec.SchedPlan(); !errors.Is(err, sim.ErrWorkersAndClasses) {
		t.Errorf("SchedPlan: got %v, want ErrWorkersAndClasses", err)
	}
	if _, err := spec.ClassPlan(); !errors.Is(err, sim.ErrWorkersAndClasses) {
		t.Errorf("ClassPlan: got %v, want ErrWorkersAndClasses", err)
	}

	for _, c := range []struct {
		spec sim.Spec
		want error
	}{
		{spec, sim.ErrWorkersAndClasses},
		{sim.Spec{Window: -5}, sim.ErrNegativeWindow},
		{sim.Spec{Window: -1, Workload: "pattern:stencil_1d?width=4&steps=2"}, sim.ErrNegativeWindow},
	} {
		for _, engine := range sim.Engines() {
			run := c.spec
			run.Engine = engine
			if run.Workload == "" {
				run.Workload = "case1"
			}
			if _, err := sim.Run(run); !errors.Is(err, c.want) {
				t.Errorf("%s %+v: Run got %v, want %v", engine, c.spec, err, c.want)
			}
		}
	}

	// Either knob alone is fine.
	if _, err := (sim.Spec{Workers: 8}).SchedPlan(); err != nil {
		t.Errorf("Workers alone: %v", err)
	}
	if _, err := (sim.Spec{WorkerClasses: "4xfast"}).SchedPlan(); err != nil {
		t.Errorf("WorkerClasses alone: %v", err)
	}
}

// TestWithDefaultsClasses checks the defaulting rule that keeps a
// class-bearing spec valid: WithDefaults fills Workers only when no
// class list is declared.
func TestWithDefaultsClasses(t *testing.T) {
	if got := (sim.Spec{}).WithDefaults().Workers; got != sim.DefaultWorkers {
		t.Errorf("plain spec: Workers = %d, want %d", got, sim.DefaultWorkers)
	}
	withClasses := sim.Spec{WorkerClasses: "2xa+2xb:2.0"}.WithDefaults()
	if withClasses.Workers != 0 {
		t.Errorf("class spec: Workers = %d, want 0 (count comes from the class list)", withClasses.Workers)
	}
	if _, err := withClasses.SchedPlan(); err != nil {
		t.Errorf("defaulted class spec must stay valid: %v", err)
	}
}
