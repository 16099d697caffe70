package picos

import (
	"testing"

	"repro/internal/trace"
)

// TestAdmitSlotsOnlyLegal: the prototype-style admission must stay legal
// and drain even under VM pressure (head-of-line stalls, no deadlock).
func TestAdmitSlotsOnlyLegal(t *testing.T) {
	const n = 150
	deps := make([][]trace.Dep, n)
	for i := range deps {
		for d := 0; d < trace.MaxDeps; d++ {
			deps[i] = append(deps[i], trace.Dep{Addr: uint64(i*64+d)*4096 + 0x100000, Dir: trace.InOut})
		}
	}
	tr := simpleTrace(deps, 5_000)
	cfg := DefaultConfig()
	cfg.Admission = AdmitSlotsOnly
	r := runTrace(t, tr, cfg, 8)
	r.verify(t, tr)
	// Under slots-only admission the dependence store must have been
	// driven to capacity at least once with 150x15 inout deps in flight:
	// either the VM fills or, with distinct addresses, a DM set does.
	st := r.p.Stats()
	if st.VMStallEvents+st.DMConflicts == 0 {
		t.Fatal("expected storage-capacity stalls under slots-only admission")
	}
}

// TestPolicyAndDesignNames covers the names of the TS policies and DM
// designs.
func TestPolicyAndDesignNames(t *testing.T) {
	if SchedFIFO.String() != "FIFO" || SchedLIFO.String() != "LIFO" {
		t.Fatal("sched policy names changed")
	}
	if DM8Way.String() != "DM 8way" || DM16Way.String() != "DM 16way" || DMP8Way.String() != "DM P+8way" {
		t.Fatal("DM design names changed")
	}
}
