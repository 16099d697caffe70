package sim_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"

	_ "repro/internal/engines"
)

// randomTrace builds a seeded random task graph: tasks touch addresses
// drawn from a small pool (so version chains, consumer chains and DM
// sharing all occur), with random directions, up to MaxDeps dependences
// and no duplicate address within one task.
func randomTrace(r *rand.Rand, idx int) *trace.Trace {
	nTasks := 10 + r.Intn(70)
	nAddrs := 4 + r.Intn(24)
	addrs := make([]uint64, nAddrs)
	for i := range addrs {
		// Block-aligned addresses, as real traces have.
		addrs[i] = uint64(r.Intn(1<<20)) << 7
	}
	tr := &trace.Trace{Name: fmt.Sprintf("random-%d", idx)}
	for id := 0; id < nTasks; id++ {
		nDeps := r.Intn(trace.MaxDeps + 1)
		if nDeps > nAddrs {
			nDeps = nAddrs
		}
		perm := r.Perm(nAddrs)[:nDeps]
		task := trace.Task{ID: uint32(id), Duration: 1 + uint64(r.Intn(2000))}
		for _, ai := range perm {
			task.Deps = append(task.Deps, trace.Dep{
				Addr: addrs[ai],
				Dir:  trace.Direction(r.Intn(3)),
			})
		}
		tr.Tasks = append(tr.Tasks, task)
	}
	// Half of the graphs carry task kinds (a small kernel vocabulary with
	// some tasks left unkinded), so kind-affine worker classes and the
	// locality policy have something to bind to.
	if idx%2 == 1 {
		kinds := []string{"ka", "kb", "kc"}
		for id := range tr.Tasks {
			if r.Intn(4) > 0 {
				tr.Tasks[id].Kind = tr.KindID(kinds[r.Intn(len(kinds))])
			}
		}
	}
	return tr
}

// TestRandomGraphProperties drives ~200 seeded random task graphs
// through the Picos engines and checks the invariants that must hold on
// every schedule:
//
//   - no task is lost or duplicated: the start order is a permutation
//     of the task set, and TasksSubmitted == TasksCompleted
//   - the schedule respects the dependence oracle
//   - the accelerated makespan is never better than the zero-overhead
//     perfect scheduler's on the same worker count
//   - every N-th graph is additionally replayed on the cycle-stepped
//     reference loop and must agree byte-for-byte (a randomized
//     extension of the fixed equivalence matrix)
//   - every graph also runs on the nanos software runtime under the same
//     worker setup (see checkNanos)
func TestRandomGraphProperties(t *testing.T) {
	const graphs = 200
	r := rand.New(rand.NewSource(0x9105))
	for g := 0; g < graphs; g++ {
		tr := randomTrace(r, g)
		if err := tr.Validate(); err != nil {
			t.Fatalf("graph %d: generator built an invalid trace: %v", g, err)
		}
		workers := 1 + r.Intn(16)
		engine := []string{"picos-hw", "picos-comm", "picos-full"}[g%3]
		spec := sim.Spec{Engine: engine, Workers: workers}
		// Every third graph runs on a sharded fabric (alternating 2 and 4
		// shards, the 4-shard lane under the low-bits hash), so the
		// invariants — and the g%16 byte-identity replays that land on
		// these graphs — cover NumDCT > 1 too.
		if g%3 == 2 {
			spec.NumDCT = []int{2, 4}[(g/3)%2]
			if spec.NumDCT == 4 {
				spec.ShardHash = "low-bits"
			}
		}
		// Every fourth graph runs on a heterogeneous platform: rotating
		// class mixes (multipliers, an affinity class backed by an
		// unrestricted one) x grant policies, with stealing on every other
		// hetero graph. Workers stays zero — the class list fixes the
		// count — and the roofline below is re-run with the same classes.
		if g%4 == 3 {
			spec.Workers = 0
			spec.WorkerClasses = []string{
				"5xfast+3xslow:2",
				"2xturbo:0.5+6xbase",
				"4xa@ka+4xb:1.5",
				"3xfast+3xmid:1.5+2xslow:3",
			}[(g/4)%4]
			spec.Sched = []string{"fifo", "priority", "locality", "lifo"}[(g/4)%4]
			spec.Steal = g%8 == 7
		}

		res, err := sim.RunTrace(tr, spec)
		if err != nil {
			t.Fatalf("graph %d on %s: %v", g, engine, err)
		}
		n := len(tr.Tasks)
		if res.Stats == nil {
			t.Fatalf("graph %d: missing stats", g)
		}
		if res.Stats.TasksSubmitted != uint64(n) || res.Stats.TasksCompleted != uint64(n) {
			t.Fatalf("graph %d on %s: %d tasks, submitted %d, completed %d",
				g, engine, n, res.Stats.TasksSubmitted, res.Stats.TasksCompleted)
		}
		if len(res.Order) != n {
			t.Fatalf("graph %d on %s: %d tasks but %d dispatches", g, engine, n, len(res.Order))
		}
		seen := make([]bool, n)
		for _, id := range res.Order {
			if int(id) >= n || seen[id] {
				t.Fatalf("graph %d on %s: task %d dispatched twice or unknown", g, engine, id)
			}
			seen[id] = true
		}
		if err := sim.Verify(tr, res); err != nil {
			t.Fatalf("graph %d on %s: schedule violates dependences: %v", g, engine, err)
		}

		perfSpec := sim.Spec{Engine: "perfect", Workers: workers}
		if spec.WorkerClasses != "" {
			perfSpec.Workers = 0
			perfSpec.WorkerClasses = spec.WorkerClasses
		}
		perfect, err := sim.RunTrace(tr, perfSpec)
		if err != nil {
			t.Fatalf("graph %d on perfect: %v", g, err)
		}
		if res.Makespan < perfect.Makespan {
			t.Fatalf("graph %d on %s: makespan %d beats the zero-overhead roofline %d",
				g, engine, res.Makespan, perfect.Makespan)
		}

		if g%16 == 0 {
			refSpec := spec
			refSpec.FastForward = sim.Bool(false)
			ref, err := sim.RunTrace(tr, refSpec)
			if err != nil {
				t.Fatalf("graph %d reference on %s: %v", g, engine, err)
			}
			if fj, rj := resultJSON(t, res), resultJSON(t, ref); fj != rj {
				t.Fatalf("graph %d on %s: fast path diverges from reference\nfast: %s\nref:  %s", g, engine, fj, rj)
			}
		}

		// Every eighth graph (offset to land on homogeneous and sharded
		// lanes but never the hetero lane, whose rotating policies
		// include the priority scheduler streaming refuses) replays
		// through a bounded descriptor window: the streamed run must
		// complete every task under the window backpressure, keep no
		// whole-graph schedule arrays, and its fast path must agree
		// byte-for-byte with the streamed cycle-stepped reference.
		if g%8 == 2 {
			win := []int{2, 16, 256}[(g/8)%3]
			wSpec := spec
			wSpec.Window = win
			ws, err := sim.RunTrace(tr, wSpec)
			if err != nil {
				t.Fatalf("graph %d window=%d on %s: %v", g, win, engine, err)
			}
			if ws.Stats == nil || ws.Stats.TasksCompleted != uint64(n) {
				t.Fatalf("graph %d window=%d on %s: %d tasks, stats %+v", g, win, engine, n, ws.Stats)
			}
			if ws.Order != nil || ws.Start != nil || ws.Finish != nil {
				t.Fatalf("graph %d window=%d on %s: streamed run kept whole-graph schedule arrays", g, win, engine)
			}
			wRef := wSpec
			wRef.FastForward = sim.Bool(false)
			wr, err := sim.RunTrace(tr, wRef)
			if err != nil {
				t.Fatalf("graph %d window=%d reference on %s: %v", g, win, engine, err)
			}
			if wj, rj := resultJSON(t, ws), resultJSON(t, wr); wj != rj {
				t.Fatalf("graph %d window=%d on %s: streamed fast path diverges from reference\nfast: %s\nref:  %s", g, win, engine, wj, rj)
			}
		}

		nSpec := spec
		nSpec.Engine = "nanos"
		checkNanos(t, g, tr, nSpec)
	}
}

// checkNanos runs one random graph on the nanos engine: the materialized
// schedule must respect the dependence oracle; unless the policy is the
// whole-graph priority scheduler, a window wider than the graph must
// reproduce the materialized aggregates exactly, and narrow windows
// must complete, rerun deterministically and record no schedule.
func checkNanos(t *testing.T, g int, tr *trace.Trace, spec sim.Spec) {
	t.Helper()
	ref, err := sim.RunTrace(tr, spec)
	if err != nil {
		t.Fatalf("graph %d on nanos: %v", g, err)
	}
	if err := sim.Verify(tr, ref); err != nil {
		t.Fatalf("graph %d on nanos: schedule violates dependences: %v", g, err)
	}
	if spec.Sched == "priority" {
		return
	}
	for _, win := range []int{len(tr.Tasks) + 1, 2, 16, 256} {
		wSpec := spec
		wSpec.Window = win
		a, err := sim.RunTrace(tr, wSpec)
		if err != nil {
			t.Fatalf("graph %d window=%d on nanos: %v", g, win, err)
		}
		if a.Start != nil || a.Finish != nil {
			t.Fatalf("graph %d window=%d on nanos: streamed run kept whole-graph schedule arrays", g, win)
		}
		if win > len(tr.Tasks) {
			if a.Makespan != ref.Makespan || a.Baseline != ref.Baseline || a.LockBusy != ref.LockBusy ||
				a.FirstStart != ref.FirstStart || a.ThrTask != ref.ThrTask {
				t.Fatalf("graph %d window=%d on nanos: streamed %+v, materialized %+v", g, win, a, ref)
			}
			continue
		}
		b, err := sim.RunTrace(tr, wSpec)
		if err != nil {
			t.Fatalf("graph %d window=%d rerun on nanos: %v", g, win, err)
		}
		if aj, bj := resultJSON(t, a), resultJSON(t, b); aj != bj {
			t.Fatalf("graph %d window=%d on nanos: nondeterministic\nfirst:  %s\nsecond: %s", g, win, aj, bj)
		}
	}
}

// TestClockNeverRewinds drives a Picos-like sequence of RunTo/StepTo
// calls through the sim layer indirectly and the picos API directly via
// the hil engines; the direct unit-level checks live in
// internal/picos/fastpath_test.go. Here we assert the schedule arrays
// are monotonic per task: finish >= start for every task, and no start
// precedes the first submission cycle.
func TestClockNeverRewinds(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	tr := randomTrace(r, 0)
	for _, engine := range []string{"picos-hw", "picos-comm", "picos-full"} {
		res, err := sim.RunTrace(tr, sim.Spec{Engine: engine})
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		for id := range res.Start {
			if res.Finish[id] < res.Start[id] {
				t.Fatalf("%s: task %d finishes at %d before starting at %d", engine, id, res.Finish[id], res.Start[id])
			}
		}
	}
}
