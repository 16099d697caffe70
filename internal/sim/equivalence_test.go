package sim_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/sim"

	_ "repro/internal/engines"
)

// equivalenceEngines are the three Picos HIL integration modes — the
// engines whose runner actually branches on the FastForward knob.
var equivalenceEngines = []string{"picos-hw", "picos-comm", "picos-full"}

// equivalenceWorkloads is the full workload matrix of the differential
// suite: the six real benchmarks of Table I (at a reduced problem size
// so the cycle-stepped reference side stays CI-friendly; h264dec uses
// its own frame-count sizing), the seven synthetic capacity cases of
// Table IV, and five parameterized dependence-pattern families —
// including the duration-jittered random family and the in-place
// (fields=1) variant, whose per-step version chains stress the DCT
// batching hardest.
func equivalenceWorkloads() []sim.Spec {
	specs := []sim.Spec{
		{Workload: "heat", Problem: 768},
		{Workload: "lu", Problem: 768},
		{Workload: "mlu", Problem: 768},
		{Workload: "sparselu", Problem: 768},
		{Workload: "cholesky", Problem: 768},
		{Workload: "h264dec"},
	}
	for c := 1; c <= 7; c++ {
		specs = append(specs, sim.Spec{Workload: fmt.Sprintf("case%d", c)})
	}
	for _, pattern := range []string{
		"pattern:stencil_1d?width=16&steps=12",
		"pattern:fft?width=16&steps=10",
		"pattern:all_to_all?width=8&steps=8",
		"pattern:random_nearest?width=12&steps=10&k=4&jitter=10",
		"pattern:tree?width=16&steps=8&fields=1",
		"pattern:stencil_2d?width=6&height=4&steps=8",
		"pattern:wavefront?width=5&height=4&steps=8",
		"pattern:stencil_1d?width=16&steps=10&gaps=5",
		"pattern:nearest?width=8&steps=8&k=3&regions=3",
	} {
		specs = append(specs, sim.Spec{Workload: pattern})
	}
	return specs
}

// resultJSON canonicalizes a Result for comparison: the full JSON
// serialization, schedule arrays and stats included.
func resultJSON(t *testing.T, res *sim.Result) string {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	return string(b)
}

// goldenPath holds the SHA-256 of every fast-path Result the
// equivalence suites produce, keyed by subtest name. The fast and
// reference loops are compared with each other run by run; the digests
// additionally pin both to the Results the engines produced when the
// file was recorded — schedule arrays, WedgedAt, timed-out Makespan and
// RefusedIDs included — so a refactor that moves both loops in step
// still fails. Rewrite it with `go test ./internal/sim -update-golden`
// only for an intended Result change; the run must be unfiltered (no
// -run or -skip) to also drop the keys no subtest checks any more.
const goldenPath = "testdata/fastpath_golden.json"

var updateGolden = flag.Bool("update-golden", false, "rewrite "+goldenPath+" from the current fast-path Results")

var golden struct {
	once    sync.Once
	mu      sync.Mutex
	sums    map[string]string
	checked map[string]bool
	err     error
}

// checkGolden compares the digest of a fast-path Result's JSON against
// the recorded one for t's subtest name (or records it under
// -update-golden), and notes the name as checked.
func checkGolden(t *testing.T, resJSON string) {
	t.Helper()
	golden.once.Do(func() {
		golden.sums = map[string]string{}
		golden.checked = map[string]bool{}
		b, err := os.ReadFile(goldenPath)
		if err == nil {
			err = json.Unmarshal(b, &golden.sums)
		}
		if err != nil && !*updateGolden {
			golden.err = err
		}
	})
	if golden.err != nil {
		t.Fatalf("golden digests: %v", golden.err)
	}
	sum := sha256.Sum256([]byte(resJSON))
	got := hex.EncodeToString(sum[:])
	golden.mu.Lock()
	defer golden.mu.Unlock()
	golden.checked[t.Name()] = true
	if *updateGolden {
		golden.sums[t.Name()] = got
		return
	}
	if want, ok := golden.sums[t.Name()]; !ok {
		t.Errorf("no golden digest for %s; record it with -update-golden", t.Name())
	} else if got != want {
		t.Errorf("fast-path Result drifted from the recorded one: sha256 %s, want %s\n%s", got, want, resJSON)
	}
}

// goldenSuite registers the end-of-suite bookkeeping of the digest file
// for the calling suite, once every subtest has checked its entry. On
// an unfiltered run that passed, a recorded key under the suite's name
// that no subtest checked is stale: it fails the suite, and
// -update-golden drops it. Under -update-golden the file is then
// rewritten.
func goldenSuite(t *testing.T) {
	t.Cleanup(func() {
		golden.mu.Lock()
		defer golden.mu.Unlock()
		if unfiltered() && !t.Failed() {
			for _, name := range slices.Sorted(maps.Keys(golden.sums)) {
				if !strings.HasPrefix(name, t.Name()+"/") || golden.checked[name] {
					continue
				}
				if *updateGolden {
					delete(golden.sums, name)
				} else {
					t.Errorf("stale golden digest %s: no subtest checks it; drop it with an unfiltered -update-golden run", name)
				}
			}
		}
		if !*updateGolden {
			return
		}
		var b bytes.Buffer
		enc := json.NewEncoder(&b) // sorts the keys
		enc.SetEscapeHTML(false)
		enc.SetIndent("", "  ")
		if err := enc.Encode(golden.sums); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	})
}

// unfiltered reports that neither -run nor -skip narrows the run, so
// every subtest of a suite reaches checkGolden.
func unfiltered() bool {
	return flag.Lookup("test.run").Value.String() == "" && flag.Lookup("test.skip").Value.String() == ""
}

// TestFastPathEquivalence runs the {picos-hw, picos-comm, picos-full} x
// {6 benchmarks, 7 synthetic cases} matrix twice — event-driven fast
// path on vs the cycle-stepped reference loop — and asserts the two
// Results are JSON-identical, including per-task schedules, start order
// and every accelerator counter (conflict/stall/blocked cycles
// included, which the fast path batch-accounts instead of accruing
// per cycle).
func TestFastPathEquivalence(t *testing.T) {
	goldenSuite(t)
	for _, engine := range equivalenceEngines {
		for _, base := range equivalenceWorkloads() {
			spec := base
			spec.Engine = engine
			t.Run(engine+"/"+spec.Workload, func(t *testing.T) {
				t.Parallel()
				fast := spec
				fast.FastForward = sim.Bool(true)
				ref := spec
				ref.FastForward = sim.Bool(false)

				fres, err := sim.Run(fast)
				if err != nil {
					t.Fatalf("fast path: %v", err)
				}
				rres, err := sim.Run(ref)
				if err != nil {
					t.Fatalf("cycle-stepped reference: %v", err)
				}
				fj, rj := resultJSON(t, fres), resultJSON(t, rres)
				if fj != rj {
					t.Errorf("fast path diverges from cycle-stepped reference\nfast: %s\nref:  %s", fj, rj)
				}
				checkGolden(t, fj)
				if fres.Stats == nil || rres.Stats == nil {
					t.Fatal("picos engines must report stats")
				}
				if *fres.Stats != *rres.Stats {
					t.Errorf("stats diverge\nfast: %+v\nref:  %+v", *fres.Stats, *rres.Stats)
				}
			})
		}
	}
}

// TestFastPathEquivalenceKnobs widens the differential net beyond the
// default configuration: the cycle-stepped reference must also match
// under the LIFO scheduler, the slots-only admission policy (which
// exercises DCT head-of-line stall batching), the direct-hash DM design
// (which exercises DM-conflict stall batching) and a multi-TRS/DCT
// future architecture.
func TestFastPathEquivalenceKnobs(t *testing.T) {
	knobs := []struct {
		name      string
		workloads []string
		mut       func(*sim.Spec)
	}{
		{"lifo", []string{"case4", "case7", "heat"}, func(s *sim.Spec) { s.Policy = "lifo" }},
		{"slots", []string{"case4", "case7", "heat"}, func(s *sim.Spec) { s.Admission = "slots" }},
		// The direct-hash DM wedges case7 under either admission policy
		// (see TestFastPathWedgeDetection); heat with slots-only
		// admission survives with millions of DM-conflict stall cycles —
		// exactly the batch-accounting the fast path must reproduce.
		{"8way", []string{"case4"}, func(s *sim.Spec) { s.Design = "8way" }},
		{"8way-slots", []string{"case4", "heat"}, func(s *sim.Spec) { s.Design = "8way"; s.Admission = "slots" }},
		{"4trs4dct", []string{"case4", "case7", "heat"}, func(s *sim.Spec) { s.NumTRS = 4; s.NumDCT = 4 }},
		// Sharded dependence fabric: partitioned DM/VM, arbiter-routed
		// GW fan-out and shard-hop distances must all batch identically
		// on the fast path, also with the hop latency ablated to zero.
		{"2dct", []string{"case4", "heat"}, func(s *sim.Spec) { s.NumDCT = 2 }},
		{"4dct-freehop", []string{"case4", "heat"}, func(s *sim.Spec) { s.NumDCT = 4; s.ShardHop = -1 }},
		{"2dct-hop4", []string{"case4", "heat"}, func(s *sim.Spec) { s.NumDCT = 2; s.ShardHop = 4 }},
		{"1worker", []string{"case4", "case7", "heat"}, func(s *sim.Spec) { s.Workers = 1 }},
		// Creation run-ahead pipeline: a bounded submission buffer makes
		// Submit reject and the platform park/retry (the descriptor feed
		// in HW-only, the link-delivery parking in the comm modes, plus
		// the master's run-ahead window in Full-system). The fast path
		// must reproduce the per-cycle loop's retry timing exactly.
		{"newq1", []string{"case2", "heat"}, func(s *sim.Spec) { s.NewQDepth = 1 }},
		{"newq-runahead", []string{"case2", "sparselu", "heat"}, func(s *sim.Spec) { s.NewQDepth = 4; s.RunAhead = 2 }},
		{"newq-8way-slots", []string{"sparselu", "heat"}, func(s *sim.Spec) {
			s.NewQDepth = 8
			s.RunAhead = 6
			s.Design = "8way"
			s.Admission = "slots"
		}},
		{"runahead-unbounded", []string{"case2"}, func(s *sim.Spec) { s.NewQDepth = 2; s.RunAhead = -1 }},
		// Heterogeneous scheduling layer: worker classes, non-FIFO grant
		// policies and cross-class stealing make sched.Pool buffer every
		// visible ready task instead of one per idle worker, and the fast
		// path must still reproduce the per-cycle loop exactly.
		{"hetero", []string{"case4", "case7", "heat"}, func(s *sim.Spec) { s.WorkerClasses = "8xfast+4xslow:2.0" }},
		{"hetero-affinity-priority", []string{"heat"}, func(s *sim.Spec) {
			s.WorkerClasses = "6xfast@gs+6xslow:2.0"
			s.Sched = "priority"
		}},
		{"steal-locality", []string{"case4", "heat"}, func(s *sim.Spec) {
			s.WorkerClasses = "6xa+6xb:1.5"
			s.Sched = "locality"
			s.Steal = true
		}},
		// The TS LIFO policy crossed with the pool's two buffering rules:
		// a uniform FIFO plan pulls one ready task per idle worker, so few
		// workers leave the TS backed up and LIFO picks among the backlog;
		// every other plan drains the TS into the pool as tasks appear.
		// The two rules give different schedules here, so these rows
		// catch a grant path that buffers the wrong way.
		{"lifo-2workers", []string{"sparselu"}, func(s *sim.Spec) {
			s.Policy = "lifo"
			s.Workers = 2
		}},
		{"lifo-hetero", []string{"heat"}, func(s *sim.Spec) {
			s.Policy = "lifo"
			s.WorkerClasses = "1xfast+1xslow:2.0"
		}},
		{"lifo-steal-locality", []string{"sparselu"}, func(s *sim.Spec) {
			s.Policy = "lifo"
			s.WorkerClasses = "1xa+2xb:1.5"
			s.Sched = "locality"
			s.Steal = true
		}},
		// Deadlock-avoidance admission: case7's 15-same-set bursts are
		// refused (structurally, in both loops identically) while the
		// admittable remainder completes.
		{"avoid-deadlock", []string{"case4", "case7", "heat"}, func(s *sim.Spec) { s.Admission = "avoid-deadlock" }},
		{"avoid-deadlock-park-8way", []string{"case7"}, func(s *sim.Spec) {
			s.Design = "8way"
			s.Admission = "avoid-deadlock-park"
		}},
		// Streaming ingestion: Spec.Window > 0 feeds the runner from a
		// lazy bounded-window source instead of a materialized task
		// array, and the streamed fast path must reproduce the streamed
		// per-cycle loop exactly — alone and composed with the
		// NewQDepth/RunAhead backpressure. The window0 row pins the
		// routing contract: an explicit zero window takes the
		// materialized path by construction, so its rows are the same
		// bytes as the matrix's default rows.
		{"window0", []string{"case4", "heat"}, func(s *sim.Spec) { s.Window = 0 }},
		{"window16", []string{"case4", "case7", "heat"}, func(s *sim.Spec) { s.Window = 16 }},
		{"window256", []string{"case2", "sparselu", "heat"}, func(s *sim.Spec) { s.Window = 256 }},
		{"window16-newq-runahead", []string{"case2", "heat"}, func(s *sim.Spec) {
			s.Window = 16
			s.NewQDepth = 4
			s.RunAhead = 2
		}},
		// Degrade recovery under a window: leaked credits starve
		// admission, the gateway refuses blocked heads inside the
		// accelerator, and a full window reopens at the refusal — an
		// accelerator event the fast loop must wake for. Few workers keep
		// the window full while they run, which is when a late wake shows.
		{"window16-degrade", []string{"cholesky"}, func(s *sim.Spec) {
			s.Workers = 8
			s.Window = 16
			s.Faults = "dct:creditleak=1.0@seed5"
			s.Recovery = "degrade=20000"
		}},
		{"window4-degrade-2workers", []string{"cholesky"}, func(s *sim.Spec) {
			s.Workers = 2
			s.Window = 4
			s.Faults = "dct:creditleak=1.0@seed5"
			s.Recovery = "degrade=20000"
		}},
		// Fault plans: every injection — probabilistic link faults drawn
		// at send events, cycle-triggered kills and stalls — must fire at
		// identical cycles on both loops, and recovery (retransmission,
		// regrant) must replay identically too. The armed-but-silent row
		// pins the nil-gating: clauses that never trigger leave the run
		// byte-identical to the matrix's fault-free baseline by
		// construction (same Result JSON the other rows compare).
		{"faults-silent", []string{"case4", "heat"}, func(s *sim.Spec) {
			s.Faults = "worker:failstop=2@cycle9000000000+axi:drop=0.0@seed7"
			s.Recovery = "retry=3:backoff200+regrant"
		}},
		{"faults-drop-retry", []string{"case4", "heat"}, func(s *sim.Spec) {
			s.Faults = "axi:drop=0.01@seed7"
			s.Recovery = "retry=3:backoff200"
		}},
		{"faults-link-noise", []string{"case4", "heat"}, func(s *sim.Spec) {
			s.Faults = "axi:delay=0.05x300@seed2+axi:dup=0.02@seed3+trs:stall=5000@cycle20000"
		}},
		{"faults-failstop-regrant", []string{"sparselu", "heat"}, func(s *sim.Spec) {
			s.Faults = "worker:failstop=2@cycle50000"
			s.Recovery = "regrant"
		}},
	}
	goldenSuite(t)
	for _, engine := range equivalenceEngines {
		for _, k := range knobs {
			for _, workload := range k.workloads {
				spec := sim.Spec{Engine: engine, Workload: workload}
				if workload == "heat" {
					spec.Problem = 512
				}
				if workload == "sparselu" {
					spec.Problem = 768
				}
				k.mut(&spec)
				t.Run(engine+"/"+k.name+"/"+workload, func(t *testing.T) {
					t.Parallel()
					fast := spec
					fast.FastForward = sim.Bool(true)
					ref := spec
					ref.FastForward = sim.Bool(false)
					fres, err := sim.Run(fast)
					if err != nil {
						t.Fatalf("fast path: %v", err)
					}
					rres, err := sim.Run(ref)
					if err != nil {
						t.Fatalf("cycle-stepped reference: %v", err)
					}
					fj, rj := resultJSON(t, fres), resultJSON(t, rres)
					if fj != rj {
						t.Errorf("fast path diverges from cycle-stepped reference\nfast: %s\nref:  %s", fj, rj)
					}
					checkGolden(t, fj)
				})
			}
		}
	}
}

// TestFastPathTimedOutGolden pins a watchdog expiry on each picos engine,
// fast path only: a million-cycle stencil under a 100,000-cycle watchdog
// times out with every worker still busy, so its Makespan is the
// running tasks' planned finish, not a completion the run observed.
func TestFastPathTimedOutGolden(t *testing.T) {
	goldenSuite(t)
	for _, engine := range equivalenceEngines {
		t.Run(engine, func(t *testing.T) {
			res, err := sim.Run(sim.Spec{
				Engine:   engine,
				Workload: "pattern:stencil_1d?width=16&steps=4&len=1000000",
				Watchdog: 100_000,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.TimedOut || res.Makespan == 0 {
				t.Fatalf("want a timed-out run with a planned makespan, got timedOut=%v makespan=%d", res.TimedOut, res.Makespan)
			}
			checkGolden(t, resultJSON(t, res))
		})
	}
}

// TestFastPathWedgeDetection: case7 on the direct-hash 8-way DM is a
// genuine model deadlock (admitted tasks whose dependences can never be
// stored — the hazard of the paper's deadlock discussion). Both loops
// must prove it and report it structurally: a Result with Wedged set and
// the same partial completion set, not an opaque error. The exact
// WedgedAt cycle may differ between the two loops (they prove the same
// dead state at different points of their iteration), but the set of
// completed tasks is part of the deterministic schedule and must match.
func TestFastPathWedgeDetection(t *testing.T) {
	spec := sim.Spec{Engine: "picos-hw", Workload: "case7", Design: "8way", Watchdog: 200_000}
	spec.FastForward = sim.Bool(true)
	fres, err := sim.Run(spec)
	if err != nil {
		t.Fatalf("fast path errored instead of reporting a wedge: %v", err)
	}
	if !fres.Wedged || fres.WedgedAt == 0 {
		t.Errorf("fast path did not report the deadlock: wedged=%v at %d", fres.Wedged, fres.WedgedAt)
	}
	spec.FastForward = sim.Bool(false)
	rres, err := sim.Run(spec)
	if err != nil {
		t.Fatalf("cycle-stepped reference errored instead of reporting a wedge: %v", err)
	}
	if !rres.Wedged || rres.WedgedAt == 0 {
		t.Errorf("cycle-stepped reference did not report the deadlock: wedged=%v at %d", rres.Wedged, rres.WedgedAt)
	}
	if len(fres.Finish) != len(rres.Finish) {
		t.Fatal("schedule array lengths differ")
	}
	for i := range fres.Finish {
		if (fres.Finish[i] > 0) != (rres.Finish[i] > 0) {
			t.Errorf("task %d completion differs between loops (fast %d, ref %d)", i, fres.Finish[i], rres.Finish[i])
		}
	}
}

// TestWedgeMachineReadableInSweep: a sweep containing deadlocking grid
// points must deliver them as Results with Wedged set, not as dropped
// error items — the aligned-layout all_to_all pattern needs 15
// same-set DM ways on 8way, so it wedges, while p8way completes it.
func TestWedgeMachineReadableInSweep(t *testing.T) {
	grid := sim.Grid{
		Base:    sim.Spec{Engine: "picos-hw", Workload: "pattern:all_to_all?width=32&steps=8&layout=aligned", Watchdog: 500_000},
		Designs: []string{"8way", "p8way"},
	}
	items := sim.Sweep(grid.Expand(), 0)
	if len(items) != 2 {
		t.Fatalf("expected 2 items, got %d", len(items))
	}
	for _, it := range items {
		if it.Err != "" {
			t.Fatalf("%s: sweep dropped the run with error %q", it.Spec.Design, it.Err)
		}
	}
	if !items[0].Result.Wedged {
		t.Error("8way aligned all_to_all should wedge")
	}
	if items[1].Result.Wedged {
		t.Error("p8way spread the aligned buffers and should complete")
	}
}
