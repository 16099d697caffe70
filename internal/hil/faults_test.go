package hil

import (
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/faults"
)

// parsePlan is a test helper around faults.ParsePlan.
func parsePlan(t *testing.T, plan string) *faults.Plan {
	t.Helper()
	p, err := faults.ParsePlan(plan)
	if err != nil {
		t.Fatalf("ParsePlan(%q): %v", plan, err)
	}
	return p
}

func parseRecovery(t *testing.T, rec string) faults.Recovery {
	t.Helper()
	r, err := faults.ParseRecovery(rec)
	if err != nil {
		t.Fatalf("ParseRecovery(%q): %v", rec, err)
	}
	return r
}

// TestFaultPlanZeroPerturbation: a configured plan whose clauses never
// trigger (a fail-stop far past the makespan, a zero-rate drop) must
// leave the run byte-identical to the fault-free one — the injection
// machinery is armed but fires nothing, so Faulted stays false and the
// schedule, statistics and probes all match exactly. A recovery policy
// without any plan must be equally invisible.
func TestFaultPlanZeroPerturbation(t *testing.T) {
	res, err := apps.Generate(apps.Heat, 512, 128)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace

	base := DefaultConfig()
	base.Mode = HWComm
	base.Workers = 8
	clean := mustRun(t, tr, base)

	for _, tc := range []struct {
		name string
		plan string
		rec  string
	}{
		{"never-firing-clauses", "worker:failstop=2@cycle9000000000+axi:drop=0.0@seed7", ""},
		{"recovery-without-plan", "", "retry=3:backoff200+regrant"},
		{"armed-plan-with-recovery", "worker:failstop=2@cycle9000000000", "retry=3+regrant"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			if tc.plan != "" {
				cfg.Faults = parsePlan(t, tc.plan)
			}
			cfg.Recovery = parseRecovery(t, tc.rec)
			got := mustRun(t, tr, cfg)
			if got.Faulted {
				t.Error("no clause fired, yet Faulted is set")
			}
			if !reflect.DeepEqual(clean, got) {
				t.Errorf("armed-but-silent fault plan perturbed the run:\nclean: %+v\narmed: %+v", clean, got)
			}
		})
	}
}

// TestFailstopRegrant: fail-stopping a busy worker mid-run aborts its
// in-flight task. Without the regrant policy the task is lost and its
// dependents wedge — a fault-induced deadlock (Faulted set), not a model
// one. With regrant the aborted task re-enters the scheduling layer and
// the run completes with a legal, fully-accounted schedule.
func TestFailstopRegrant(t *testing.T) {
	res, err := apps.Generate(apps.SparseLu, 1024, 128)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace

	cfg := DefaultConfig()
	cfg.Workers = 8
	cfg.Faults = parsePlan(t, "worker:failstop=2@cycle1000000")

	r := mustRun(t, tr, cfg)
	if !r.Wedged || !r.Faulted {
		t.Fatalf("lost in-flight task should wedge dependents: wedged=%v faulted=%v", r.Wedged, r.Faulted)
	}
	if r.LostTasks != 1 {
		t.Errorf("LostTasks = %d, want 1", r.LostTasks)
	}

	cfg.Recovery = parseRecovery(t, "regrant")
	r = mustRun(t, tr, cfg)
	if r.Wedged || r.TimedOut {
		t.Fatalf("regrant should complete the run: wedged=%v timedOut=%v", r.Wedged, r.TimedOut)
	}
	if !r.Faulted || r.RecoveredTasks != 1 || r.LostTasks != 0 {
		t.Errorf("faulted=%v recovered=%d lost=%d, want true/1/0", r.Faulted, r.RecoveredTasks, r.LostTasks)
	}
	verifyLegal(t, tr, r)
}

// TestFailstopIdleVictim: killing a worker that is idle at the trigger
// cycle loses nothing — the survivors absorb the work, and the makespan
// equals a fault-free run on one fewer worker (the strongest evidence
// the eviction removed exactly that worker and nothing else).
func TestFailstopIdleVictim(t *testing.T) {
	res, err := apps.Generate(apps.Heat, 512, 128)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace

	cfg := DefaultConfig()
	cfg.Workers = 3
	shorthanded := mustRun(t, tr, cfg).Makespan

	cfg.Workers = 4
	cfg.Faults = parsePlan(t, "worker:failstop=3@cycle0")
	r := mustRun(t, tr, cfg)
	if r.Wedged || r.LostTasks != 0 {
		t.Fatalf("idle-victim kill must not lose work: wedged=%v lost=%d", r.Wedged, r.LostTasks)
	}
	if !r.Faulted {
		t.Error("the fail-stop fired; Faulted must be set")
	}
	if r.Makespan != shorthanded {
		t.Errorf("4 workers minus a cycle-0 kill ran in %d cycles, want the 3-worker %d", r.Makespan, shorthanded)
	}
	verifyLegal(t, tr, r)
}

// TestDropRetryRecovers: a 1% AXI drop rate with bounded retransmission
// completes the run — every dropped message lands within the retry
// budget, so nothing is lost and the recovered count tallies the
// successful resends.
func TestDropRetryRecovers(t *testing.T) {
	res, err := apps.Generate(apps.Heat, 512, 128)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace

	cfg := DefaultConfig()
	cfg.Mode = HWComm
	cfg.Workers = 8
	cfg.Faults = parsePlan(t, "axi:drop=0.01@seed7")
	cfg.Recovery = parseRecovery(t, "retry=3:backoff200")

	r := mustRun(t, tr, cfg)
	if r.Wedged || r.TimedOut {
		t.Fatalf("retry should complete the run: wedged=%v timedOut=%v", r.Wedged, r.TimedOut)
	}
	if !r.Faulted || r.RecoveredTasks == 0 || r.LostTasks != 0 {
		t.Errorf("faulted=%v recovered=%d lost=%d, want true/>0/0", r.Faulted, r.RecoveredTasks, r.LostTasks)
	}
	verifyLegal(t, tr, r)
}

// TestDropWithoutRetryLoses: the same drop plan with no retransmission
// policy permanently loses messages; the run either wedges on the lost
// tasks' dependents or finishes short — either way the loss is
// accounted and attributed to the fault.
func TestDropWithoutRetryLoses(t *testing.T) {
	res, err := apps.Generate(apps.Heat, 512, 128)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace

	cfg := DefaultConfig()
	cfg.Mode = HWComm
	cfg.Workers = 8
	cfg.Faults = parsePlan(t, "axi:drop=0.01@seed7")

	r := mustRun(t, tr, cfg)
	if !r.Faulted || r.LostTasks == 0 {
		t.Errorf("faulted=%v lost=%d, want true/>0", r.Faulted, r.LostTasks)
	}
	if r.RecoveredTasks != 0 {
		t.Errorf("no retry policy, yet %d tasks recovered", r.RecoveredTasks)
	}
}

// TestDelayAndDupPerturbTiming: delay and dup faults cost bandwidth and
// latency but never correctness — the run completes legally, strictly
// later than fault-free, with nothing lost or recovered.
func TestDelayAndDupPerturbTiming(t *testing.T) {
	res, err := apps.Generate(apps.Heat, 512, 128)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace

	cfg := DefaultConfig()
	cfg.Mode = HWComm
	cfg.Workers = 8
	clean := mustRun(t, tr, cfg).Makespan

	cfg.Faults = parsePlan(t, "axi:delay=1.0x2000@seed2+axi:dup=0.02@seed3")
	r := mustRun(t, tr, cfg)
	if r.Wedged || r.TimedOut || r.LostTasks != 0 || r.RecoveredTasks != 0 {
		t.Fatalf("delay/dup must not need recovery: wedged=%v timedOut=%v lost=%d recovered=%d",
			r.Wedged, r.TimedOut, r.LostTasks, r.RecoveredTasks)
	}
	if !r.Faulted {
		t.Error("faults fired; Faulted must be set")
	}
	if r.Makespan <= clean {
		t.Errorf("delayed+duplicated link ran in %d cycles, not slower than the clean %d", r.Makespan, clean)
	}
	verifyLegal(t, tr, r)
}

// TestCreditLeakDegrade: leaking every DCT credit return starves the
// gateway's flow control once cumulative dependences exceed the pool —
// a fault-induced wedge. The degrade recovery policy instead refuses
// the inadmissible queue head after the window expires, and the run
// completes (gracefully degraded: a refusal count, not a deadlock).
func TestCreditLeakDegrade(t *testing.T) {
	res, err := apps.Generate(apps.Cholesky, 2048, 128)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace

	cfg := DefaultConfig()
	cfg.Workers = 8
	cfg.Watchdog = 2_000_000_000
	cfg.Faults = parsePlan(t, "dct:creditleak=1.0@seed5")

	r := mustRun(t, tr, cfg)
	if !r.Wedged || !r.Faulted {
		t.Fatalf("leaked credits should starve admission into a faulted wedge: wedged=%v faulted=%v", r.Wedged, r.Faulted)
	}

	cfg.Faults = parsePlan(t, "dct:creditleak=1.0@seed5")
	cfg.Recovery = parseRecovery(t, "degrade=20000")
	r = mustRun(t, tr, cfg)
	if r.Wedged || r.TimedOut {
		t.Fatalf("degrade should keep the run completing: wedged=%v timedOut=%v", r.Wedged, r.TimedOut)
	}
	if !r.Faulted || r.RefusedTasks == 0 {
		t.Errorf("faulted=%v refused=%d, want true/>0", r.Faulted, r.RefusedTasks)
	}
}

// TestFaultStarvationTimesOut: a 100%-rate link delay far longer than
// the watchdog window stalls all progress between deliveries; the
// watchdog classifies it as fault-induced starvation (TimedOut with
// Faulted), not a proven deadlock.
func TestFaultStarvationTimesOut(t *testing.T) {
	res, err := apps.Generate(apps.Heat, 512, 128)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace

	cfg := DefaultConfig()
	cfg.Mode = HWComm
	cfg.Workers = 8
	cfg.Watchdog = 100_000
	cfg.Faults = parsePlan(t, "axi:delay=1.0x1000000@seed1")

	r := mustRun(t, tr, cfg)
	if !r.TimedOut || r.Wedged {
		t.Fatalf("watchdog should classify the stall as a timeout: timedOut=%v wedged=%v", r.TimedOut, r.Wedged)
	}
	if !r.Faulted {
		t.Error("the delay fault fired; Faulted must be set")
	}
	if r.Speedup != 0 {
		t.Errorf("partial schedule must zero Speedup, got %g", r.Speedup)
	}
}

// TestTRSStallDelays: a one-shot TRS pipeline stall pushes the makespan
// out without losing anything, in both the cycle-stepped and the
// event-driven loop, identically.
func TestTRSStallDelays(t *testing.T) {
	res, err := apps.Generate(apps.Heat, 512, 128)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace

	cfg := DefaultConfig()
	cfg.Workers = 8
	clean := mustRun(t, tr, cfg).Makespan

	cfg.Faults = parsePlan(t, "trs:stall=50000@cycle20000")
	fast := mustRun(t, tr, cfg)

	cfg.Faults = parsePlan(t, "trs:stall=50000@cycle20000")
	cfg.FastForward = false
	ref := mustRun(t, tr, cfg)

	if fast.Makespan <= clean {
		t.Errorf("stalled TRS ran in %d cycles, not slower than the clean %d", fast.Makespan, clean)
	}
	if fast.Makespan != ref.Makespan || *fast.Stats != *ref.Stats {
		t.Errorf("loops diverge under the stall: fast %d %+v, ref %d %+v",
			fast.Makespan, *fast.Stats, ref.Makespan, *ref.Stats)
	}
	if !fast.Faulted {
		t.Error("the stall fired; Faulted must be set")
	}
	verifyLegal(t, tr, fast)
}

// TestArbStallDelays: a one-shot crossbar hiccup on a sharded fabric
// (the arbiter only carries new-dependence traffic when NumDCT > 1)
// pushes the makespan out without losing anything, identically on both
// loops.
func TestArbStallDelays(t *testing.T) {
	res, err := apps.Generate(apps.Heat, 512, 128)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace

	cfg := DefaultConfig()
	cfg.Workers = 8
	cfg.Picos.NumDCT = 2
	clean := mustRun(t, tr, cfg).Makespan

	cfg.Faults = parsePlan(t, "arb:stall=50000@cycle20000")
	fast := mustRun(t, tr, cfg)

	cfg.Faults = parsePlan(t, "arb:stall=50000@cycle20000")
	cfg.FastForward = false
	ref := mustRun(t, tr, cfg)

	if fast.Makespan <= clean {
		t.Errorf("stalled arbiter ran in %d cycles, not slower than the clean %d", fast.Makespan, clean)
	}
	if fast.Makespan != ref.Makespan || *fast.Stats != *ref.Stats {
		t.Errorf("loops diverge under the arb stall: fast %d %+v, ref %d %+v",
			fast.Makespan, *fast.Stats, ref.Makespan, *ref.Stats)
	}
	if !fast.Faulted {
		t.Error("the arb stall fired; Faulted must be set")
	}
	verifyLegal(t, tr, fast)
}

// TestGWStallDelays: a one-shot gateway admission-path stall on a
// sharded fabric backs submissions up in the new-task queue and pushes
// the makespan out without losing anything, identically on both loops.
// The stall is longer than the whole clean run: a short stall this
// coarse-grained workload absorbs in schedule slack, so the push-out
// assertion would be flaky against calibration changes.
func TestGWStallDelays(t *testing.T) {
	res, err := apps.Generate(apps.Heat, 512, 128)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace

	cfg := DefaultConfig()
	cfg.Workers = 8
	cfg.Picos.NumDCT = 2
	clean := mustRun(t, tr, cfg).Makespan

	cfg.Faults = parsePlan(t, "gw:stall=10000000@cycle100")
	fast := mustRun(t, tr, cfg)

	cfg.Faults = parsePlan(t, "gw:stall=10000000@cycle100")
	cfg.FastForward = false
	ref := mustRun(t, tr, cfg)

	if fast.Makespan <= clean {
		t.Errorf("stalled gateway ran in %d cycles, not slower than the clean %d", fast.Makespan, clean)
	}
	if fast.Makespan != ref.Makespan || *fast.Stats != *ref.Stats {
		t.Errorf("loops diverge under the gw stall: fast %d %+v, ref %d %+v",
			fast.Makespan, *fast.Stats, ref.Makespan, *ref.Stats)
	}
	if !fast.Faulted {
		t.Error("the gw stall fired; Faulted must be set")
	}
	verifyLegal(t, tr, fast)
}
