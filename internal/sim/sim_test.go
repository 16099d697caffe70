package sim_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/patterns"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"

	_ "repro/internal/engines"
)

// TestRegistryContents: the built-in engines and workloads are all
// reachable by name.
func TestRegistryContents(t *testing.T) {
	for _, want := range []string{"picos-hw", "picos-comm", "picos-full", "nanos", "perfect"} {
		if _, err := sim.Lookup(want); err != nil {
			t.Errorf("engine %s not registered: %v", want, err)
		}
	}
	workloads := strings.Join(sim.Workloads(), " ")
	for _, want := range []string{"heat", "lu", "mlu", "sparselu", "cholesky", "h264dec",
		"case1", "case2", "case3", "case4", "case5", "case6", "case7"} {
		if !strings.Contains(workloads, want) {
			t.Errorf("workload %s not registered (have %s)", want, workloads)
		}
	}
}

// TestLookupUnknown: a miss names the registered engines so the caller
// can self-correct.
func TestLookupUnknown(t *testing.T) {
	_, err := sim.Lookup("zz-not-an-engine")
	if err == nil {
		t.Fatal("unknown engine accepted")
	}
	if !strings.Contains(err.Error(), "picos-hw") {
		t.Fatalf("error %q does not list the registered engines", err)
	}
	if _, err := sim.Run(sim.Spec{Engine: "perfect", Workload: "zz-not-a-workload"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// TestTraceFileWorkload: "trace:<path>" round-trips a serialized trace
// through the workload resolver.
func TestTraceFileWorkload(t *testing.T) {
	tr, err := sim.BuildWorkload(sim.Spec{Workload: "case5"})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "case5.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	direct, err := sim.Run(sim.Spec{Engine: "picos-hw", Workload: "case5"})
	if err != nil {
		t.Fatal(err)
	}
	fromFile, err := sim.Run(sim.Spec{Engine: "picos-hw", Workload: sim.TracePrefix + path})
	if err != nil {
		t.Fatal(err)
	}
	if fromFile.Makespan != direct.Makespan {
		t.Fatalf("file-workload makespan %d, registry %d", fromFile.Makespan, direct.Makespan)
	}
	if _, err := sim.Run(sim.Spec{Engine: "picos-hw", Workload: "trace:/no/such/file"}); err == nil {
		t.Fatal("missing trace file accepted")
	}
}

// TestWorkloadSizing: Problem/Block reach the generators, and the
// defaults match the paper (2048 matrices; 10 frames for h264dec).
func TestWorkloadSizing(t *testing.T) {
	small, err := sim.BuildWorkload(sim.Spec{Workload: "cholesky", Block: 256})
	if err != nil {
		t.Fatal(err)
	}
	if len(small.Tasks) != 120 { // Table I: cholesky 2048/256
		t.Fatalf("cholesky/256 has %d tasks, want 120", len(small.Tasks))
	}
	big, err := sim.BuildWorkload(sim.Spec{Workload: "cholesky", Block: 128})
	if err != nil {
		t.Fatal(err)
	}
	if len(big.Tasks) != 816 { // Table I: cholesky 2048/128
		t.Fatalf("cholesky/128 has %d tasks, want 816", len(big.Tasks))
	}
}

// TestRunTraceAndVerify: hand-built traces run through RunTrace, get
// stamped with the engine and trace names, and verify against the
// dependence oracle.
func TestRunTraceAndVerify(t *testing.T) {
	tr := &trace.Trace{Name: "hand-built"}
	a := uint64(0x100)
	tr.Tasks = []trace.Task{
		{ID: 0, Duration: 10, Deps: []trace.Dep{{Addr: a, Dir: trace.Out}}},
		{ID: 1, Duration: 10, Deps: []trace.Dep{{Addr: a, Dir: trace.In}}},
	}
	res, err := sim.RunTrace(tr, sim.Spec{Engine: "perfect", Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine != "perfect" || res.Workload != "hand-built" {
		t.Fatalf("labels not stamped: %q/%q", res.Engine, res.Workload)
	}
	if err := sim.Verify(tr, res); err != nil {
		t.Fatalf("legal schedule rejected: %v", err)
	}
	// A corrupted schedule must be rejected.
	res.Start[1] = 0
	if err := sim.Verify(tr, res); err == nil {
		t.Fatal("dependence-violating schedule verified")
	}
}

// TestMalformedTraceErrors: every registered engine, with and without
// worker classes, rejects a malformed hand-built trace with the typed
// trace error — never a panic, a silent run or a misreported cause.
func TestMalformedTraceErrors(t *testing.T) {
	valid := func() *trace.Trace {
		tr := &trace.Trace{Name: "malformed", Kinds: []string{"k"}}
		for i := 0; i < 4; i++ {
			tr.Tasks = append(tr.Tasks, trace.Task{ID: uint32(i), Duration: 10, Kind: 1,
				Deps: []trace.Dep{{Addr: 0x100, Dir: trace.InOut}, {Addr: 0x200 + 64*uint64(i), Dir: trace.Out}}})
		}
		return tr
	}
	tooMany := make([]trace.Dep, trace.MaxDeps+1)
	for i := range tooMany {
		tooMany[i] = trace.Dep{Addr: 0x1000 + 64*uint64(i), Dir: trace.In}
	}
	for _, c := range []struct {
		name   string
		mutate func(*trace.Task)
		want   error
	}{
		{"bad kind", func(tk *trace.Task) { tk.Kind = 2 }, trace.ErrBadKind},
		{"bad ID", func(tk *trace.Task) { tk.ID = 7 }, trace.ErrBadID},
		{"duplicate address", func(tk *trace.Task) { tk.Deps[1].Addr = tk.Deps[0].Addr }, trace.ErrDupAddr},
		{"zero duration", func(tk *trace.Task) { tk.Duration = 0 }, trace.ErrZeroDuration},
		{"too many deps", func(tk *trace.Task) { tk.Deps = tooMany }, trace.ErrTooManyDeps},
	} {
		for _, engine := range sim.Engines() {
			for _, spec := range []sim.Spec{
				{Engine: engine, Workers: 2},
				{Engine: engine, WorkerClasses: "1xa+1xb:2.0"},
			} {
				t.Run(fmt.Sprintf("%s/%s/workers=%d,classes=%s", c.name, engine, spec.Workers, spec.WorkerClasses), func(t *testing.T) {
					tr := valid()
					c.mutate(&tr.Tasks[2])
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("panicked: %v", r)
						}
					}()
					if _, err := sim.RunTrace(tr, spec); !errors.Is(err, c.want) {
						t.Fatalf("err = %v, want %v", err, c.want)
					}
				})
			}
		}
	}
}

// TestResultJSONRoundTrip: the shared Result is JSON-serializable and
// StripSchedule removes only the per-task arrays.
func TestResultJSONRoundTrip(t *testing.T) {
	res, err := sim.Run(sim.Spec{Engine: "picos-full", Workload: "case4"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats == nil {
		t.Fatal("picos result without stats")
	}
	blob, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back sim.Result
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Makespan != res.Makespan || back.Speedup != res.Speedup || len(back.Start) != len(res.Start) {
		t.Fatal("JSON round trip lost fields")
	}
	res.StripSchedule()
	if res.Start != nil || res.Finish != nil || res.Order != nil {
		t.Fatal("StripSchedule left schedule arrays")
	}
	if res.Makespan == 0 || res.Stats == nil {
		t.Fatal("StripSchedule removed aggregates")
	}
}

// TestProbes: the derived latency/throughput probes.
func TestProbes(t *testing.T) {
	first, thr := sim.Probes([]uint64{40, 10, 100})
	if first != 10 || thr != 45 {
		t.Fatalf("Probes = %d/%.1f, want 10/45.0", first, thr)
	}
	if f, th := sim.Probes(nil); f != 0 || th != 0 {
		t.Fatalf("Probes(nil) = %d/%.1f", f, th)
	}
	if f, th := sim.Probes([]uint64{7}); f != 7 || th != 0 {
		t.Fatalf("Probes(single) = %d/%.1f", f, th)
	}
}

// TestStreamPriorityRefused: bottom-level priorities are a backward pass
// over the whole graph, so every streaming engine refuses the priority
// policy under a window with the scheduling layer's one sentinel, while
// the materialized run of the same spec schedules by it.
func TestStreamPriorityRefused(t *testing.T) {
	for _, engine := range []string{"picos-hw", "picos-comm", "picos-full", "nanos"} {
		spec := sim.Spec{Engine: engine, Workload: "case4", Sched: "priority", Window: 16}
		if _, err := sim.Run(spec); !errors.Is(err, sched.ErrNoBottomLevels) {
			t.Errorf("%s windowed: got %v, want sched.ErrNoBottomLevels", engine, err)
		}
		spec.Window = 0
		if _, err := sim.Run(spec); err != nil {
			t.Errorf("%s materialized: %v", engine, err)
		}
	}
}

// TestStreamedDAGErrorsOnEveryEngine: a windowed JSON dagfile that reads
// a node already out of the window fails with the typed error on every
// engine, the whole-graph perfect roofline included, instead of running
// the prefix of the graph before the bad edge.
func TestStreamedDAGErrorsOnEveryEngine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "retired.json")
	graph := `[{"name":"a"},{"name":"b"},{"name":"c"},{"name":"d","after":["a"]}]`
	if err := os.WriteFile(path, []byte(graph), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, engine := range []string{"picos-hw", "picos-comm", "picos-full", "nanos", "perfect"} {
		spec := sim.Spec{Engine: engine, Workload: "pattern:dagfile?path=" + path, Window: 2}
		if res, err := sim.Run(spec); !errors.Is(err, patterns.ErrRetiredNode) {
			t.Errorf("%s: got %v (result %v), want patterns.ErrRetiredNode", engine, err, res != nil)
		}
	}
}
