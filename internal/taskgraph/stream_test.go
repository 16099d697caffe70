package taskgraph

import (
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/patterns"
	"repro/internal/synth"
	"repro/internal/trace"
)

// refPreds is the reference dependence analysis, written straight from
// the OmpSs rules and sharing no code with Incremental: for each
// dependence of task i, scan the earlier accesses to its address
// backwards. A reading dependence stops at the last writer (RAW); a
// writing one collects every reader since that writer (WAR) and then the
// writer itself (WAW). The result is ascending and deduplicated.
func refPreds(tasks []trace.Task) [][]int32 {
	type access struct {
		task int32
		dir  trace.Direction
	}
	hist := map[uint64][]access{}
	out := make([][]int32, len(tasks))
	for i, task := range tasks {
		var preds []int32
		for _, d := range task.Deps {
			h := hist[d.Addr]
			for k := len(h) - 1; k >= 0; k-- {
				if h[k].dir.Writes() {
					preds = append(preds, h[k].task)
					break
				}
				if d.Dir.Writes() {
					preds = append(preds, h[k].task)
				}
			}
		}
		for _, d := range task.Deps {
			hist[d.Addr] = append(hist[d.Addr], access{int32(i), d.Dir})
		}
		slices.Sort(preds)
		out[i] = slices.Compact(preds)
	}
	return out
}

// analysisInputs are the traces the analysis is checked on: the seven
// synthetic capacity cases, the five canonical apps at a small problem
// size, and pattern families with strided, all-to-all and seeded-random
// dependence sets.
func analysisInputs(t testing.TB) []*trace.Trace {
	t.Helper()
	var trs []*trace.Trace
	for n := 1; n <= 7; n++ {
		tr, err := synth.Case(n)
		if err != nil {
			t.Fatal(err)
		}
		trs = append(trs, tr)
	}
	for _, app := range apps.Apps {
		problem, block := 512, 64
		if app == apps.H264Dec {
			problem, block = 2, 8
		}
		res, err := apps.Generate(app, problem, block)
		if err != nil {
			t.Fatal(err)
		}
		trs = append(trs, res.Trace)
	}
	for _, spec := range []string{
		"spread?width=32&steps=12&k=5",
		"all_to_all?width=24&steps=8",
		"random_nearest?width=32&steps=16&k=3&seed=11",
	} {
		p, err := patterns.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		src, err := patterns.Generate(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := trace.Materialize(src)
		if err != nil {
			t.Fatal(err)
		}
		trs = append(trs, tr)
	}
	return trs
}

// TestBuildMatchesReference checks Build against the reference: every
// Pred row equals the reference list (so it is ascending and
// deduplicated), Succ is its exact transpose with ascending rows, and
// every row is capped, so an append to one row cannot overwrite its
// neighbour in the shared arena.
func TestBuildMatchesReference(t *testing.T) {
	for _, tr := range analysisInputs(t) {
		want := refPreds(tr.Tasks)
		g := Build(tr)
		wantSucc := make([][]int32, len(tr.Tasks))
		for i, ps := range want {
			if !slices.Equal(g.Pred[i], ps) {
				t.Fatalf("%s task %d: Pred %v, want %v", tr.Name, i, g.Pred[i], ps)
			}
			for _, p := range ps {
				wantSucc[p] = append(wantSucc[p], int32(i))
			}
		}
		for i := range wantSucc {
			if !slices.Equal(g.Succ[i], wantSucc[i]) {
				t.Fatalf("%s task %d: Succ %v, want %v", tr.Name, i, g.Succ[i], wantSucc[i])
			}
			if cap(g.Pred[i]) != len(g.Pred[i]) || cap(g.Succ[i]) != len(g.Succ[i]) {
				t.Fatalf("%s task %d: row not capped (Pred %d/%d, Succ %d/%d)", tr.Name, i,
					len(g.Pred[i]), cap(g.Pred[i]), len(g.Succ[i]), cap(g.Succ[i]))
			}
		}
	}
}

// TestIncrementalMatchesReference feeds every input through one reused
// Incremental, twice per trace with a Reset before each pass, and checks
// each task's predecessors against the reference.
func TestIncrementalMatchesReference(t *testing.T) {
	inc := NewIncremental()
	for _, tr := range analysisInputs(t) {
		want := refPreds(tr.Tasks)
		for pass := 0; pass < 2; pass++ {
			inc.Reset()
			for i := range tr.Tasks {
				if got := inc.Preds(int32(i), tr.Tasks[i].Deps); !slices.Equal(got, want[i]) {
					t.Fatalf("%s pass %d task %d: preds %v, want %v", tr.Name, pass, i, got, want[i])
				}
			}
		}
	}
}

// TestIncrementalReset checks that a reused analysis carries no address
// state across Reset: the same trace analyzed twice gives the same
// answer both times.
func TestIncrementalReset(t *testing.T) {
	tr, err := synth.Case(4)
	if err != nil {
		t.Fatal(err)
	}
	inc := NewIncremental()
	var firstRun [][]int32
	for i := range tr.Tasks {
		p := inc.Preds(int32(i), tr.Tasks[i].Deps)
		firstRun = append(firstRun, append([]int32(nil), p...))
	}
	inc.Reset()
	for i := range tr.Tasks {
		got := inc.Preds(int32(i), tr.Tasks[i].Deps)
		want := firstRun[i]
		if len(got) != len(want) {
			t.Fatalf("task %d after Reset: preds %v, want %v", i, got, want)
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("task %d after Reset: preds %v, want %v", i, got, want)
			}
		}
	}
}

// FuzzIncremental drives one Incremental with random valid tasks and
// checks every predecessor list against the reference. The input is a
// byte stream: a header byte 0xFF resets the analysis mid-stream (the
// reference restarts with it); any other header starts a task whose
// dependence count is the header mod MaxDeps+1, and each dependence byte
// names one of 16 addresses (low nibble) and a direction (high nibble
// mod 3). A repeated address within one task is skipped, which keeps
// every task valid. The seed corpus lives in testdata/fuzz.
func FuzzIncremental(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		inc := NewIncremental()
		var tasks []trace.Task
		var got [][]int32
		check := func() {
			want := refPreds(tasks)
			for i := range tasks {
				if !slices.Equal(got[i], want[i]) {
					t.Fatalf("task %d (segment of %d): preds %v, want %v", i, len(tasks), got[i], want[i])
				}
			}
			tasks, got = tasks[:0], got[:0]
		}
		for len(data) > 0 {
			hdr := data[0]
			data = data[1:]
			if hdr == 0xFF {
				check()
				inc.Reset()
				continue
			}
			nd := min(int(hdr)%(trace.MaxDeps+1), len(data))
			var deps []trace.Dep
			for _, b := range data[:nd] {
				addr := 0x1000 + uint64(b&0x0F)*64
				if !slices.ContainsFunc(deps, func(d trace.Dep) bool { return d.Addr == addr }) {
					deps = append(deps, trace.Dep{Addr: addr, Dir: trace.Direction((b >> 4) % 3)})
				}
			}
			data = data[nd:]
			id := int32(len(tasks))
			tasks = append(tasks, trace.Task{ID: uint32(id), Duration: 1, Deps: deps})
			got = append(got, slices.Clone(inc.Preds(id, deps)))
		}
		check()
	})
}
