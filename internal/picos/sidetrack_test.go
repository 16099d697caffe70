package picos

import (
	"testing"

	"repro/internal/trace"
)

// sameSetAddr returns the i-th distinct word address mapping to
// direct-hash set 0: multiples of 256 bytes keep bits [7:2] zero.
func sameSetAddr(i int) uint64 { return 0x1000 + uint64(i)*0x100 }

// TestConflictSidetrackKeepsRegistering: a DM-set conflict parks one
// dependence in the sidetrack while later tasks on other sets keep
// registering and becoming ready.
func TestConflictSidetrackKeepsRegistering(t *testing.T) {
	for _, tc := range []struct {
		name        string
		wantReady   int // tasks dispatchable while the conflict persists
		wantParkeds int
	}{
		{"sidetrack", 9, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Design = DM8Way // direct hash: 8 ways per set
			p, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Tasks 0..8 each write a distinct address of set 0: the
			// ninth (task 8) conflicts and can never be ready while the
			// set is full. Task 9 writes set 1 and becomes ready past the
			// parked conflict (8 + 1 ready).
			for i := 0; i < 9; i++ {
				if err := p.Submit(uint32(i), []trace.Dep{{Addr: sameSetAddr(i), Dir: trace.InOut}}); err != nil {
					t.Fatal(err)
				}
			}
			if err := p.Submit(9, []trace.Dep{{Addr: 0x2004, Dir: trace.InOut}}); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2000; i++ {
				p.Step()
			}
			ready := p.ReadyCount()
			if ready != tc.wantReady {
				t.Errorf("%d tasks ready, want %d", ready, tc.wantReady)
			}
			if st := p.Stats(); st.DMConflicts != 1 {
				t.Errorf("DMConflicts = %d, want 1 (the same dependence, counted once)", st.DMConflicts)
			}
			parked := 0
			for _, d := range p.dct {
				if d.hasParked {
					parked++
				}
			}
			if parked != tc.wantParkeds {
				t.Errorf("%d parked dependences, want %d", parked, tc.wantParkeds)
			}
			// Draining set 0 releases the conflict: finish every ready
			// task until all ten ran.
			seen := map[uint32]bool{}
			for i := 0; i < 200000 && len(seen) < 10; i++ {
				if rt, ok := p.PopReady(); ok {
					seen[rt.ID] = true
					p.NotifyFinish(rt.Handle)
				}
				p.Step()
			}
			if len(seen) != 10 {
				t.Fatalf("only %d/10 tasks became ready after draining", len(seen))
			}
			p.RunOut()
			if err := p.Drained(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSidetrackSecondSetCountsDistinctConflict: while one dependence is
// parked on set 0, a head conflicting on a DIFFERENT saturated set is a
// distinct conflict episode and counts; a head waiting on the SAME set
// is part of the parked episode and does not.
func TestSidetrackSecondSetCountsDistinctConflict(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Design = DM8Way
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	id := uint32(0)
	fill := func(set uint64, n int) {
		for i := 0; i < n; i++ {
			addr := 0x1000 + set*0x4 + uint64(i)*0x100
			if err := p.Submit(id, []trace.Dep{{Addr: addr, Dir: trace.InOut}}); err != nil {
				t.Fatal(err)
			}
			id++
		}
	}
	fill(0, 9) // set 0: eight fit, the ninth parks (1 conflict)
	fill(1, 9) // set 1: eight fit, the ninth stalls the head (2nd conflict)
	for i := 0; i < 5000; i++ {
		p.Step()
	}
	if st := p.Stats(); st.DMConflicts != 2 {
		t.Errorf("DMConflicts = %d, want 2 (one per saturated set)", st.DMConflicts)
	}
}

// TestSidetrackResetScrubs: Reset must clear a parked dependence so a
// pooled engine cannot leak it into the next run.
func TestSidetrackResetScrubs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Design = DM8Way
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		if err := p.Submit(uint32(i), []trace.Dep{{Addr: sameSetAddr(i), Dir: trace.InOut}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2000; i++ {
		p.Step()
	}
	if !p.dct[0].hasParked {
		t.Fatal("expected a parked dependence before Reset")
	}
	if err := p.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	if p.dct[0].hasParked || p.dct[0].parkedRetryAt != 0 {
		t.Error("Reset leaked sidetrack state")
	}
	if p.ReadyCount() != 0 || p.InFlight() != 0 {
		t.Error("Reset left live tasks")
	}
}
