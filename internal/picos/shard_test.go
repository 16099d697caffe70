package picos

import (
	"strings"
	"testing"

	"repro/internal/trace"
)

// shardDeps builds n distinct dependences whose addresses all hash to
// the given shard under the fabric's shard hash.
func shardDeps(t *testing.T, p *Picos, shard, n int) []trace.Dep {
	t.Helper()
	deps := make([]trace.Dep, 0, n)
	for addr := uint64(0x1000); len(deps) < n; addr += 4 {
		if p.dctOf(addr) == shard {
			deps = append(deps, trace.Dep{Addr: addr, Dir: trace.Out})
		}
		if addr > 0x100000 {
			t.Fatalf("no %d addresses found for shard %d", n, shard)
		}
	}
	return deps
}

// TestShardCapacityIsPartitioned: sharding divides the design's DM/VM
// capacity, it does not multiply it — the per-shard memories and the
// gateway's per-shard credit pools must all be sized from the shard's
// partition of sets.
func TestShardCapacityIsPartitioned(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		p, err := New(Config{NumDCT: n})
		if err != nil {
			t.Fatal(err)
		}
		wantSets := dmSets / n
		wantCap := wantSets * p.Config().Design.Ways()
		total := 0
		for _, u := range p.dct {
			if u.dm.numSets != wantSets {
				t.Errorf("%d shards: DM has %d sets, want %d", n, u.dm.numSets, wantSets)
			}
			if len(u.vm.entries) != wantCap {
				t.Errorf("%d shards: VM has %d entries, want %d", n, len(u.vm.entries), wantCap)
			}
			total += len(u.vm.entries)
		}
		if total != p.Config().Design.Capacity() {
			t.Errorf("%d shards: fabric VM totals %d entries, want the design's %d", n, total, p.Config().Design.Capacity())
		}
		for i, c := range p.gw.vmCredits {
			if want := wantCap - vmReserve; c != want {
				t.Errorf("%d shards: shard %d granted %d credits, want %d", n, i, c, want)
			}
		}
	}
}

// TestShardConfigValidation: a shard count that leaves no admission
// headroom per shard must be rejected at construction, not discovered
// as a wedge at runtime.
func TestShardConfigValidation(t *testing.T) {
	if _, err := New(Config{NumDCT: 64}); err == nil {
		t.Fatal("64 shards of an 8-way design (8 VM entries per shard) must be rejected")
	} else if !strings.Contains(err.Error(), "admission reserve") {
		t.Fatalf("unexpected rejection: %v", err)
	}
	// 16 shards x 4 sets x 8 ways = 32 entries per shard still clears the
	// 16-entry reserve.
	if _, err := New(Config{NumDCT: 16}); err != nil {
		t.Fatalf("16 shards must be accepted: %v", err)
	}
}

// TestAdmitPerShardRoom is the regression test for the per-shard room
// check: admission is a two-phase reserve/commit, and one saturated
// shard must block a task even when every other shard is empty — the
// room check is against the shard's own partition of the VM, never the
// pooled total. A failed reserve or a failed TRS-slot commit must roll
// the reservation back completely.
func TestAdmitPerShardRoom(t *testing.T) {
	p, err := New(Config{NumDCT: 2})
	if err != nil {
		t.Fatal(err)
	}
	g := p.gw

	// Saturate shard 0's credit pool; shard 1 stays untouched (empty).
	g.vmCredits[0] = 3
	before1 := g.vmCredits[1]

	deps := append(shardDeps(t, p, 0, 4), shardDeps(t, p, 1, 2)...)
	if _, _, ok := g.admit(deps); ok {
		t.Fatal("task with 4 deps admitted against 3 credits on shard 0 (pooled-total over-admission)")
	}
	if g.vmCredits[0] != 3 || g.vmCredits[1] != before1 {
		t.Fatalf("failed reserve not rolled back: credits (%d, %d), want (3, %d)",
			g.vmCredits[0], g.vmCredits[1], before1)
	}

	// The empty shard still admits on its own.
	if _, _, ok := g.admit(shardDeps(t, p, 1, 4)); !ok {
		t.Fatal("empty shard blocked by its saturated sibling")
	}
	if g.vmCredits[1] != before1-4 {
		t.Fatalf("committed admission debited %d credits, want 4", before1-g.vmCredits[1])
	}

	// Commit failure (no TRS slot) must also roll back the reservation.
	for {
		if _, ok := p.trs[0].allocSlot(); !ok {
			break
		}
	}
	before0, before1 := g.vmCredits[0], g.vmCredits[1]
	if _, _, ok := g.admit(shardDeps(t, p, 1, 2)); ok {
		t.Fatal("admitted with every TM0 slot taken")
	}
	if g.vmCredits[0] != before0 || g.vmCredits[1] != before1 {
		t.Fatalf("failed commit not rolled back: credits (%d, %d), want (%d, %d)",
			g.vmCredits[0], g.vmCredits[1], before0, before1)
	}
}

// TestShardedRunStaysWithinPartition runs a shard-skewed workload (every
// address on one shard of four) end to end: the schedule must stay
// legal, no shard's VM may ever hold more live versions than its
// partition, and admission control — not VM exhaustion — must be what
// throttles the skew.
func TestShardedRunStaysWithinPartition(t *testing.T) {
	cfg := Config{NumDCT: 4}
	probe, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 60 distinct shard-0 addresses, two writers each, interleaved so
	// many versions are live at once.
	addrs := shardDeps(t, probe, 0, 60)
	var tasks []trace.Task
	for round := 0; round < 2; round++ {
		for i, d := range addrs {
			tasks = append(tasks, trace.Task{
				ID:       uint32(round*len(addrs) + i),
				Duration: 40,
				Deps:     []trace.Dep{d},
			})
		}
	}
	tr := &trace.Trace{Name: "shard-skew", Tasks: tasks}
	res := runTrace(t, tr, cfg, 8)
	res.verify(t, tr)

	perShard := shardCapacity(cfg.Design, 4)
	if res.p.Stats().MaxVMLive > perShard-vmReserve {
		t.Fatalf("a shard held %d live versions, beyond its %d-credit partition",
			res.p.Stats().MaxVMLive, perShard-vmReserve)
	}
	if got := res.p.Stats().TasksCompleted; got != uint64(len(tasks)) {
		t.Fatalf("completed %d of %d tasks", got, len(tasks))
	}
}
