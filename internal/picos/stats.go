package picos

// Stats aggregates the observable behaviour of one Picos run: the
// Table II conflict counters, stall and blocking cycles, and traffic
// volumes used by the latency/throughput analysis.
type Stats struct {
	// Task flow.
	TasksSubmitted uint64 // pushed into the GW new-task queue
	TasksAdmitted  uint64 // accepted by the GW (N2 succeeded)
	TasksCompleted uint64 // finish walk done, slot recycled
	DepsProcessed  uint64 // dependences registered by DCTs

	// Dependence Memory behaviour (Table II).
	DMConflicts           uint64 // dependences that found their set full
	DMConflictStallCycles uint64 // cycles spent retrying conflicting deps
	VMStallEvents         uint64 // dependences stalled on VM exhaustion
	VMStallCycles         uint64

	// Gateway admission.
	GWBlockedCycles uint64 // cycles the GW sat on an inadmissible task

	// Wake-up traffic (Section III-D chains).
	WakesRouted uint64

	// Occupancy highwater marks.
	MaxInFlightTasks int
	MaxVMLive        int

	// ProtocolErrors counts impossible transitions (wake for a ready or
	// unknown dependence, release of a free VM entry). Always zero unless
	// the model is broken; tests assert on it.
	ProtocolErrors uint64
}

// chargeStall adds n cycles to the counter a failed store of kind k
// feeds.
func (s *Stats) chargeStall(k stallKind, n uint64) {
	switch k {
	case stallVMFull:
		s.VMStallCycles += n
	case stallDMSet:
		s.DMConflictStallCycles += n
	}
}

// BusyCycles reports per-unit busy-cycle counters, for utilization
// analysis and the bottleneck discussion of Section V-C.
type BusyCycles struct {
	GW  uint64
	TRS []uint64
	DCT []uint64
	TS  uint64
	Arb uint64
}

// Busy returns a snapshot of per-unit busy cycles.
func (p *Picos) Busy() BusyCycles {
	b := BusyCycles{GW: p.gw.busy, TS: p.ts.busy, Arb: p.arb.routed}
	for _, t := range p.trs {
		b.TRS = append(b.TRS, t.busy)
	}
	for _, d := range p.dct {
		b.DCT = append(b.DCT, d.busy)
	}
	return b
}
