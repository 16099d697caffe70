package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/lint"
	"repro/internal/sim"
)

// declared reads the benchmark declaration at the repository root.
func declared(t *testing.T) (workloadNames, whys, e2e, layer []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	for _, w := range decl.Workloads {
		workloadNames = append(workloadNames, w.Name)
		whys = append(whys, w.Why)
	}
	for _, m := range decl.EndToEnd {
		e2e = append(e2e, m.Name+" "+m.Unit)
	}
	for _, m := range decl.PerLayer {
		layer = append(layer, m.Name+" "+m.Unit)
	}
	return workloadNames, whys, e2e, layer
}

func defs(ds []metricDef) []string {
	var out []string
	for _, d := range ds {
		out = append(out, d.name+" "+d.unit)
	}
	return out
}

func TestDeclarationMatchesCode(t *testing.T) {
	names, whys, e2e, layer := declared(t)
	var wantNames, wantWhys []string
	for _, w := range workloads(1) {
		wantNames = append(wantNames, w.name)
		wantWhys = append(wantWhys, w.why)
	}
	if !slices.Equal(names, wantNames) || !slices.Equal(whys, wantWhys) {
		t.Errorf("BENCHMARK.json workloads %q\nwant %q", names, wantNames)
	}
	if !slices.Equal(e2e, defs(endToEnd)) {
		t.Errorf("BENCHMARK.json end_to_end %q\nwant %q", e2e, defs(endToEnd))
	}
	if !slices.Equal(layer, defs(perLayer)) {
		t.Errorf("BENCHMARK.json per_layer %q\nwant %q", layer, defs(perLayer))
	}
}

func sortedKeys(m metrics) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

func names(ds []metricDef) []string {
	var out []string
	for _, d := range ds {
		out = append(out, d.name)
	}
	slices.Sort(out)
	return out
}

// smoke is one round per workload: enough to run every op and check, too
// few for the round-time percentiles, which must be withheld.
var smoke = config{seed: 1, seconds: 0, minRounds: 1, setupReps: 1}

func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads(smoke.seed) {
		rep := runEndToEnd(w, smoke)
		if rep.Failed != 0 || rep.Attempted == 0 {
			t.Errorf("%s: %d of %d attempts failed", w.name, rep.Failed, rep.Attempted)
		}
		if !slices.Equal(rep.Withheld, []string{"ns_per_task_p50", "ns_per_task_p75"}) {
			t.Errorf("%s: withheld %v, want both percentiles after one round", w.name, rep.Withheld)
		}
		got := append(sortedKeys(rep.Metrics), rep.Withheld...)
		slices.Sort(got)
		if !slices.Equal(got, names(endToEnd)) {
			t.Errorf("%s: emitted %v\nwant %v", w.name, got, names(endToEnd))
		}
		if w.name == "paper-sweep" && (rep.FidelityCellsOK == nil || *rep.FidelityCellsOK != paperCells) {
			t.Errorf("paper-sweep: fidelity cells %v, want %d", rep.FidelityCellsOK, paperCells)
		}
	}
}

func TestTracedSmoke(t *testing.T) {
	w, err := lookupWorkload("paper-sweep", smoke.seed)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	rep, err := runTraced(w, smoke, dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Errorf("%d of %d attempts failed", rep.Failed, rep.Attempted)
	}
	if got := sortedKeys(rep.Metrics); !slices.Equal(got, names(perLayer)) {
		t.Errorf("emitted %v\nwant %v", got, names(perLayer))
	}
	if rep.Layers.CPUSamples > 0 {
		sum := 0.0
		for _, u := range ledgerUnits {
			if u != "runtime.malloc" {
				sum += rep.Metrics["cpu."+u].Value
			}
		}
		if sum < 0.99 || sum > 1.01 {
			t.Errorf("CPU shares sum to %.4f, want 1", sum)
		}
	}
	for _, f := range []string{"spans.json", "cpu.pprof", "layers.json"} {
		if _, err := os.Stat(filepath.Join(dir, w.name, f)); err != nil {
			t.Error(err)
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so the helper must sort
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{19, 0.50, 0, false},
		{20, 0.50, 10, true},
		{39, 0.75, 0, false},
		{40, 0.75, 30, true},
		{100, 0.75, 75, true},
		{0, 0.50, 0, false},
	} {
		got, ok := percentile(ramp(c.n), c.q)
		if ok != c.ok || got != c.want {
			t.Errorf("percentile(%d samples, %.2f) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
}

func TestBadSpecCountsAsFailure(t *testing.T) {
	w := workload{name: "injected", ops: []op{
		single("good", sim.Spec{Engine: "picos-hw", Workload: "case1"}),
		single("unknown engine", sim.Spec{Engine: "no-such-engine", Workload: "case1"}),
		single("unknown workload", sim.Spec{Engine: "picos-hw", Workload: "no-such-workload"}),
	}}
	rep := runEndToEnd(w, config{seed: 1, seconds: 0, minRounds: 2, setupReps: 1})
	// One setup round plus two timed rounds of three ops, two bad.
	if rep.Attempted != 9 || rep.Failed != 6 {
		t.Errorf("attempted %d, failed %d; want 9 and 6", rep.Attempted, rep.Failed)
	}
	if want := 6.0 / 9; rep.OpFailRatio != want {
		t.Errorf("op_fail_ratio %v, want %v", rep.OpFailRatio, want)
	}
}

// TestCalibrateAllocatesNothing keeps the calibration kernel free of the
// collector: a kernel that allocated could start a collection or pay for
// one left running by the op before it, and scale that op's time by it.
func TestCalibrateAllocatesNothing(t *testing.T) {
	if n := testing.AllocsPerRun(3, func() { calibrate() }); n != 0 {
		t.Errorf("calibrate allocates %v times per run", n)
	}
}

// TestStaticChecks keeps the benchmark vet- and picoslint-clean. The
// benchmark is a module of its own, which the repository-wide go vet and
// picoslint runs do not reach; gofmt -l . at the root does.
func TestStaticChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the repository from source")
	}
	if out, err := exec.Command("go", "vet", ".").CombinedOutput(); err != nil {
		t.Errorf("go vet: %v\n%s", err, out)
	}
	suite, err := lint.Load(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range suite.Run(lint.Analyzers()) {
		t.Errorf("picoslint: %s", d)
	}
}
