// Package faults is the deterministic fault-injection and recovery
// subsystem threaded through picos, hil, and sim. A fault plan is a
// parsed grammar carried in sim.Spec.Faults (for example
// "axi:drop=0.01@seed7+worker:failstop=2@cycle50000+dct:slowdown=4x:shard1");
// every probabilistic decision draws from a per-clause detrand
// (splitmix64) stream, so a plan plus a workload is fully reproducible
// on both the event-driven fast path and the cycle-stepped reference
// loop. The package owns only plan state and decision primitives — the
// engines own the injection sites, and every site is nil-gated so the
// fault-free path stays byte-identical and allocation-free.
package faults

import (
	"errors"

	"repro/internal/detrand"
)

// Typed sentinels for plan and recovery parsing. Malformed inputs are
// always wrapped errors (errors.Is-matchable), never panics — the
// FuzzParseFaultPlan target enforces it.
var (
	// ErrBadPlan reports a malformed fault-plan string.
	ErrBadPlan = errors.New("faults: malformed fault plan")
	// ErrBadRecovery reports a malformed recovery-policy string.
	ErrBadRecovery = errors.New("faults: malformed recovery policy")
)

// Fault layers — the subsystems that own injection sites today.
const (
	LayerAXI    = "axi"    // HIL AXI link / arbiter messages
	LayerWorker = "worker" // HIL worker pool
	LayerDCT    = "dct"    // dependence-memory shards
	LayerTRS    = "trs"    // task reservation stations
	LayerArb    = "arb"    // TRS/DCT crossbar arbiter
	LayerGW     = "gw"     // gateway admission engine
)

// Fault kinds per layer.
const (
	KindDrop       = "drop"       // axi: message lost at send time
	KindDelay      = "delay"      // axi: message stalls the in-order link
	KindDup        = "dup"        // axi: message sent twice (bandwidth waste)
	KindFailstop   = "failstop"   // worker: dies at a cycle, never returns
	KindSlowdown   = "slowdown"   // worker/dct: service-time multiplier
	KindVMLeak     = "vmleak"     // dct: version slot never released
	KindCreditLeak = "creditleak" // dct: shard admission credit never returned
	KindStall      = "stall"      // trs/arb/gw: queue-head service stalls once
)

// Clause is one parsed fault directive: layer:kind=value plus optional
// @seedN/@cycleN trigger and :shardK/:workerK/:trsK/:lenL selectors.
type Clause struct {
	Layer string
	Kind  string

	Rate   float64 // probability per opportunity (drop, delay, dup, leaks)
	Factor uint64  // service-time multiplier (slowdown), >= 1
	Delay  uint64  // extra cycles (axi delay, trs stall)

	Seed  uint64 // @seedN: per-clause detrand stream seed
	Cycle uint64 // @cycleN: trigger cycle (failstop, slowdown window, stall)

	Shard  int    // :shardK selector, -1 = every shard
	Worker int    // failstop victim / :workerK selector, -1 = every worker
	TRS    int    // :trsK selector, -1 = every TRS
	Len    uint64 // :lenL window length for worker slowdown, 0 = open-ended
}

// Plan is a parsed fault plan: the clause list plus the source string
// it was parsed from (kept for reporting).
type Plan struct {
	Clauses []Clause
	Source  string
}

// Empty reports whether the plan injects nothing.
func (p *Plan) Empty() bool { return p == nil || len(p.Clauses) == 0 }

// Recovery is the parsed sim.Spec.Recovery policy set.
type Recovery struct {
	// Retry bounds link-level retransmission of dropped AXI messages:
	// up to Retry resends per message, each scheduled Backoff*attempt
	// cycles after the loss (deterministic linear backoff). 0 disables
	// retransmission — a dropped message is immediately lost.
	Retry   int
	Backoff uint64
	// Regrant re-enqueues the in-flight task of a fail-stopped worker
	// through the scheduling layer instead of losing it.
	Regrant bool
	// Degrade pops the gateway's blocked head after this many blocked
	// cycles and refuses the task, so a fabric with leaked credits or
	// version slots degrades to its surviving shards instead of
	// wedging. 0 disables.
	Degrade uint64
}

// DefaultBackoff is the retransmission backoff used when "retry=N" is
// given without an explicit ":backoffB".
const DefaultBackoff = 500

// drawFloat returns the n-th value of the clause's detrand stream in
// [0, 1).
func drawFloat(seed, n uint64) float64 {
	return float64(detrand.SplitMix64(seed^n*0x9E3779B97F4A7C15)>>11) / (1 << 53)
}

// leakState is the runtime state of one probabilistic picos-side
// clause (vmleak / creditleak).
type leakState struct {
	rate  float64
	seed  uint64
	shard int
	n     uint64
}

func (s *leakState) hit(shard int) bool {
	if s.shard >= 0 && s.shard != shard {
		return false
	}
	s.n++
	return drawFloat(s.seed, s.n) < s.rate
}

// slowState is one dct:slowdown clause.
type slowState struct {
	factor uint64
	shard  int
}

// stallState is one trs:stall clause: a one-shot service delay armed
// at Cycle.
type stallState struct {
	delay   uint64
	cycle   uint64
	trs     int
	applied bool
}

// PicosFaults is the accelerator-side injector: the picos units call
// its decision primitives at their (nil-gated) injection sites. One
// instance is built per run from the plan's dct/trs clauses plus the
// degrade recovery knob and handed to picos.Config.Faults.
type PicosFaults struct {
	vmLeak     []leakState
	creditLeak []leakState
	slow       []slowState
	stalls     []stallState
	arbStalls  []stallState // arb:stall clauses (trs selector unused)
	gwStalls   []stallState // gw:stall clauses (trs selector unused)

	// Degrade is the recovery threshold: blocked-gateway cycles before
	// the head task is refused (0 = off).
	Degrade uint64

	// RefusedIDs lists the tasks the gateway popped under degrade
	// recovery, in pop order, so the platform can retire each one.
	RefusedIDs []uint32
	// Fired reports whether any accelerator-side fault actually
	// triggered during the run.
	Fired bool
}

// PicosSide builds the accelerator-side injector for one run, or nil
// when the plan has no dct/trs clauses and recovery has no degrade
// threshold (so the picos hot paths keep their nil fast path).
func (p *Plan) PicosSide(rec Recovery) *PicosFaults {
	if p.Empty() && rec.Degrade == 0 {
		// No allocation on the fault-free path: engines call this
		// unconditionally per reset.
		return nil
	}
	f := &PicosFaults{Degrade: rec.Degrade}
	if p != nil {
		for _, c := range p.Clauses {
			switch {
			case c.Layer == LayerDCT && c.Kind == KindVMLeak:
				f.vmLeak = append(f.vmLeak, leakState{rate: c.Rate, seed: c.Seed, shard: c.Shard})
			case c.Layer == LayerDCT && c.Kind == KindCreditLeak:
				f.creditLeak = append(f.creditLeak, leakState{rate: c.Rate, seed: c.Seed, shard: c.Shard})
			case c.Layer == LayerDCT && c.Kind == KindSlowdown:
				f.slow = append(f.slow, slowState{factor: c.Factor, shard: c.Shard})
			case c.Layer == LayerTRS && c.Kind == KindStall:
				f.stalls = append(f.stalls, stallState{delay: c.Delay, cycle: c.Cycle, trs: c.TRS})
			case c.Layer == LayerArb && c.Kind == KindStall:
				f.arbStalls = append(f.arbStalls, stallState{delay: c.Delay, cycle: c.Cycle, trs: -1})
			case c.Layer == LayerGW && c.Kind == KindStall:
				f.gwStalls = append(f.gwStalls, stallState{delay: c.Delay, cycle: c.Cycle, trs: -1})
			}
		}
	}
	if len(f.vmLeak) == 0 && len(f.creditLeak) == 0 && len(f.slow) == 0 &&
		len(f.stalls) == 0 && len(f.arbStalls) == 0 && len(f.gwStalls) == 0 && f.Degrade == 0 {
		return nil
	}
	return f
}

// Reset rewinds every clause stream and counter for engine reuse.
func (f *PicosFaults) Reset() {
	for i := range f.vmLeak {
		f.vmLeak[i].n = 0
	}
	for i := range f.creditLeak {
		f.creditLeak[i].n = 0
	}
	for i := range f.stalls {
		f.stalls[i].applied = false
	}
	for i := range f.arbStalls {
		f.arbStalls[i].applied = false
	}
	for i := range f.gwStalls {
		f.gwStalls[i].applied = false
	}
	f.RefusedIDs = f.RefusedIDs[:0]
	f.Fired = false
}

// LeakVM decides whether this version-slot release on the given shard
// is leaked.
func (f *PicosFaults) LeakVM(shard int) bool {
	for i := range f.vmLeak {
		if f.vmLeak[i].hit(shard) {
			f.Fired = true
			return true
		}
	}
	return false
}

// LeakCredit decides whether this shard-credit return is leaked.
func (f *PicosFaults) LeakCredit(shard int) bool {
	for i := range f.creditLeak {
		if f.creditLeak[i].hit(shard) {
			f.Fired = true
			return true
		}
	}
	return false
}

// ScaleDCT applies any dct:slowdown multiplier matching the shard to a
// service cost.
func (f *PicosFaults) ScaleDCT(shard int, cost uint64) uint64 {
	for i := range f.slow {
		s := &f.slow[i]
		if s.shard < 0 || s.shard == shard {
			cost *= s.factor
			f.Fired = true
		}
	}
	return cost
}

// StallDelay returns the extra service cycles injected into the TRS
// unit's current packet: each trs:stall clause fires once, on the
// first packet the matching unit services at or after the clause's
// trigger cycle. Attaching the stall to a real service event keeps the
// fast and reference loops identical without any extra horizon event.
func (f *PicosFaults) StallDelay(trs int, now uint64) uint64 {
	var extra uint64
	for i := range f.stalls {
		s := &f.stalls[i]
		if s.applied || now < s.cycle || (s.trs >= 0 && s.trs != trs) {
			continue
		}
		s.applied = true
		f.Fired = true
		extra += s.delay
	}
	return extra
}

// oneShotDelay fires every not-yet-applied clause whose trigger cycle
// has been reached and sums the extra delay — the shared core of the
// arbiter and gateway stalls, which have a single unit each and hence
// no selector.
func (f *PicosFaults) oneShotDelay(clauses []stallState, now uint64) uint64 {
	var extra uint64
	for i := range clauses {
		s := &clauses[i]
		if s.applied || now < s.cycle {
			continue
		}
		s.applied = true
		f.Fired = true
		extra += s.delay
	}
	return extra
}

// ArbStallDelay returns the extra routing latency injected into the
// arbiter's current message: each arb:stall clause fires once, on the
// first message the crossbar routes at or after the clause's trigger
// cycle — a transient fabric hiccup that defers everything behind the
// head message. Attaching the stall to a real routing event keeps the
// fast and reference loops identical without any extra horizon event.
func (f *PicosFaults) ArbStallDelay(now uint64) uint64 {
	return f.oneShotDelay(f.arbStalls, now)
}

// GWStallDelay returns the extra admission cycles injected into the
// gateway's current new-task admission: each gw:stall clause fires
// once, on the first task admitted at or after the clause's trigger
// cycle, extending the new-task engine's busy window (submissions
// behind it back up in the bounded new-task queue exactly as a real
// admission-path stall would cause).
func (f *PicosFaults) GWStallDelay(now uint64) uint64 {
	return f.oneShotDelay(f.gwStalls, now)
}
