package picos

import (
	"errors"
	"fmt"

	"repro/internal/faults"
	"repro/internal/trace"
)

// Config selects a Picos build: the DM design, the number of TRS/DCT
// instances (1 each in the paper's prototype; 4 in the "future
// architecture" of Figure 3a), the scheduling policy of the TS and the
// calibrated operation timing.
type Config struct {
	Design DMDesign
	NumTRS int
	NumDCT int
	Policy SchedPolicy
	Timing Timing
	// VMReserve is the per-DCT VM headroom the GW requires before
	// admitting a task under AdmitCredits. Defaults to MaxDeps+1.
	VMReserve int
	// Admission selects the GW admission policy.
	Admission AdmissionPolicy
	// Wake selects the consumer-chain wake order (ablation for the Lu
	// corner case of Section V-A).
	Wake WakeOrder
	// Conflict selects how the DCT handles a DM set conflict: the
	// default ConflictSidetrack parks the conflicting dependence in a
	// one-entry retry register so registration keeps flowing (matching
	// the prototype's Table II conflict counts); ConflictBlock is the
	// earlier strict head-of-line stall, kept as an ablation.
	Conflict ConflictPolicy
	// NewQDepth bounds the GW new-task queue, modeling the finite
	// memory-mapped submission buffer: Submit returns ErrNewQFull when
	// the queue holds this many tasks, and the submitter must retry —
	// the backpressure that makes creation run-ahead observable. 0 (the
	// default) keeps the queue unbounded, which is how the paper's HIL
	// platform preloads whole traces.
	NewQDepth int
	// ShardHash selects how addresses are partitioned across DCT shards
	// when NumDCT > 1 (single-DCT builds never consult it).
	ShardHash ShardHash
	// Faults is the accelerator-side fault injector built from the
	// run's fault plan (faults.Plan.PicosSide), or nil for the normal
	// fault-free build. Every injection site is nil-gated, so a nil
	// injector leaves the hot paths byte-identical to a build without
	// the faults package.
	Faults *faults.PicosFaults
}

// ShardHash selects the address-to-shard partition function of a
// sharded (NumDCT > 1) dependence-management fabric. The same address
// must always map to the same shard so its whole version chain lives
// together; what the hash controls is how evenly unrelated addresses
// spread — and therefore how evenly the partitioned DM/VM capacity and
// the per-shard registration engines are loaded.
type ShardHash uint8

const (
	// ShardXorFold (default) is a 64-bit xor-fold multiply mix: block
	// addresses from any allocator layout spread near-uniformly, so
	// per-shard capacity is used evenly.
	ShardXorFold ShardHash = iota
	// ShardLowBits takes the low word-address bits — the cheapest
	// possible hardware, kept as an ablation. Strided allocations
	// cluster onto few shards, concentrating load and capacity pressure
	// the way the low-bit DM index of Section V-A clusters sets.
	ShardLowBits
)

// String names the shard hash.
func (s ShardHash) String() string {
	if s == ShardLowBits {
		return "low-bits"
	}
	return "xor-fold"
}

// ConflictPolicy selects how the DCT handles a full DM set.
type ConflictPolicy uint8

const (
	// ConflictSidetrack (default) parks the conflicting dependence in a
	// single retry register with priority over the queue, so later
	// dependences keep registering while the saturated set drains. Each
	// dependence still registers only after every older dependence on
	// its address (same address means same set, and the parked entry has
	// strict priority on freed ways), so schedules stay race-free; what
	// changes is that arrivals keep flowing — and keep colliding — while
	// a set is saturated, which is what the prototype's Table II
	// conflict counters measure.
	ConflictSidetrack ConflictPolicy = iota
	// ConflictBlock stalls the whole registration path head-of-line on
	// the first unstorable dependence, the pre-sidetrack model: strictly
	// in-order, but it self-throttles arrivals during saturation and
	// under-counts conflicts relative to the prototype.
	ConflictBlock
)

// String names the conflict policy.
func (c ConflictPolicy) String() string {
	if c == ConflictBlock {
		return "block"
	}
	return "sidetrack"
}

// WakeOrder selects how a producer-consumer chain is woken when the
// producer finishes.
type WakeOrder uint8

const (
	// WakeLastFirst is the prototype's behaviour (Figure 5): the DCT
	// keeps only the newest consumer; older consumers chain through TMX
	// wake pointers and wake last-to-first. Cheap in VM state, but it
	// can postpone critical-path consumers (the Lu corner case).
	WakeLastFirst WakeOrder = iota
	// WakeFirstFirst wakes consumers in registration order: the DCT
	// keeps the chain head in the VM and each consumer's TMX entry
	// points forward to the next. Same hardware cost, opposite bias.
	WakeFirstFirst
)

// String names the wake order.
func (w WakeOrder) String() string {
	if w == WakeFirstFirst {
		return "first-first"
	}
	return "last-first"
}

// AdmissionPolicy selects how the Gateway throttles new tasks.
type AdmissionPolicy uint8

const (
	// AdmitCredits (default) reserves VM credits per dependence at
	// admission, so the version store can never be exhausted — the
	// strictest reading of the corrected operational workflow.
	AdmitCredits AdmissionPolicy = iota
	// AdmitSlotsOnly admits whenever a TRS slot is free, like the
	// prototype: dependences that cannot be stored stall in order at the
	// DCT (safe — stalls only ever delay younger tasks — but the memory-
	// capacity pressure becomes visible as conflicts, as in Table II's
	// Heat rows).
	AdmitSlotsOnly
	// AdmitAvoidDeadlock is the paper discussion's deadlock-avoidance
	// policy: on top of the credit reservation, Submit computes whether
	// the task's dependence set can fit any DM set under the design's
	// hash — a task with more same-(shard,set) addresses than the DM
	// has ways can never finish registering — and refuses it with
	// ErrUnadmittable instead of letting it wedge the fabric. Refused
	// descriptors are dropped by the platform.
	AdmitAvoidDeadlock
	// AdmitAvoidDeadlockPark is AdmitAvoidDeadlock with the other
	// refusal policy: the platform parks refused descriptors and
	// reports their IDs in the result instead of dropping them, so a
	// front-end can re-route them to a differently-provisioned fabric.
	AdmitAvoidDeadlockPark
)

// AvoidsDeadlock reports whether the policy performs the submit-time
// DM-set feasibility check.
func (a AdmissionPolicy) AvoidsDeadlock() bool {
	return a == AdmitAvoidDeadlock || a == AdmitAvoidDeadlockPark
}

// DefaultConfig returns the paper's baseline prototype: one TRS, one DCT
// with the Pearson 8-way DM, FIFO scheduling, calibrated timing.
func DefaultConfig() Config {
	return Config{
		Design:    DMP8Way,
		NumTRS:    1,
		NumDCT:    1,
		Policy:    SchedFIFO,
		Timing:    DefaultTiming(),
		VMReserve: trace.MaxDeps + 1,
	}
}

// Picos is the accelerator model. Drive it by pushing tasks with Submit,
// advancing time with Step, pulling ready tasks with PopReady and
// returning finished tasks with NotifyFinish — exactly the four
// interactions the HIL platform has with the prototype.
type Picos struct {
	cfg Config
	now uint64

	gw  *gateway
	trs []*trsUnit
	dct []*dctUnit
	arb *arbiter
	ts  *tsUnit

	// Event-horizon state (see horizon.go): the per-unit horizon keys
	// and the busy-timer high-water mark that lets Idle() skip every
	// queue scan.
	hkey    []uint64
	maxBusy uint64

	stats Stats
}

// normalizeConfig applies defaults and validates; shared by New and
// Reset so a Reset accelerator is configured exactly like a fresh one.
func normalizeConfig(cfg Config) (Config, error) {
	if cfg.NumTRS == 0 {
		cfg.NumTRS = 1
	}
	if cfg.NumDCT == 0 {
		cfg.NumDCT = 1
	}
	if cfg.NumTRS < 1 || cfg.NumTRS > 255 || cfg.NumDCT < 1 || cfg.NumDCT > 255 {
		return cfg, fmt.Errorf("picos: instance counts must be 1..255, got %d TRS / %d DCT", cfg.NumTRS, cfg.NumDCT)
	}
	if cfg.Timing == (Timing{}) {
		cfg.Timing = DefaultTiming()
	}
	if cfg.VMReserve == 0 {
		cfg.VMReserve = trace.MaxDeps + 1
	}
	if cfg.NewQDepth < 0 {
		return cfg, fmt.Errorf("picos: NewQDepth must be >= 0 (0 = unbounded), got %d", cfg.NewQDepth)
	}
	// Sharding partitions the design's DM/VM capacity instead of
	// multiplying it; a slice too thin to hold one full task's worth of
	// dependences could never admit under credits and would stall
	// unrecoverably without them.
	if shardCapacity(cfg.Design, cfg.NumDCT) <= cfg.VMReserve {
		return cfg, fmt.Errorf("picos: %d DCT shards leave %d VM entries per shard, not above the %d-entry admission reserve; use fewer shards or a larger design",
			cfg.NumDCT, shardCapacity(cfg.Design, cfg.NumDCT), cfg.VMReserve)
	}
	return cfg, nil
}

// shardSets returns the DM sets owned by each of numDCT shards: the
// design's total set count partitioned across the shards (at least one
// set each), so adding shards divides capacity instead of growing it.
func shardSets(numDCT int) int {
	if numDCT <= 1 {
		return dmSets
	}
	return max(1, dmSets/numDCT)
}

// shardCapacity returns the DM/VM entries of one shard: its share of
// sets times the design's associativity ("the corresponding VM is ...
// coherent with the DM size" holds per shard).
func shardCapacity(design DMDesign, numDCT int) int {
	return shardSets(numDCT) * design.Ways()
}

// New builds an accelerator from cfg. Zero-valued fields get defaults.
func New(cfg Config) (*Picos, error) {
	cfg, err := normalizeConfig(cfg)
	if err != nil {
		return nil, err
	}
	p := &Picos{cfg: cfg}
	p.gw = newGateway(p)
	p.arb = newArbiter(p)
	p.ts = newTS(p)
	for i := 0; i < cfg.NumTRS; i++ {
		p.trs = append(p.trs, newTRS(uint8(i), p))
	}
	for i := 0; i < cfg.NumDCT; i++ {
		p.dct = append(p.dct, newDCT(uint8(i), p))
	}
	p.gw.initCredits()
	p.rebuildHorizon()
	return p, nil
}

// Reset returns the accelerator to the state a fresh New(cfg) would
// produce while keeping every allocation it can: task/version/dependence
// memories, queue buffers and the horizon keys are scrubbed in place and
// only reallocated when cfg changes their shape (instance counts, DM
// associativity). A Reset accelerator is indistinguishable from a fresh
// one — including after a wedged run that left queues and memories
// occupied — which is what lets harnesses keep a warm engine pool
// instead of rebuilding the machine per run.
//
//picos:hotpath
func (p *Picos) Reset(cfg Config) error {
	cfg, err := normalizeConfig(cfg)
	if err != nil {
		return err
	}
	p.cfg = cfg
	p.now = 0
	p.maxBusy = 0
	p.stats = Stats{}
	if cfg.Faults != nil {
		cfg.Faults.Reset()
	}

	for i := cfg.NumTRS; i < len(p.trs); i++ {
		p.trs[i] = nil
	}
	if len(p.trs) > cfg.NumTRS {
		p.trs = p.trs[:cfg.NumTRS]
	}
	for _, t := range p.trs {
		t.reset()
	}
	for len(p.trs) < cfg.NumTRS {
		p.trs = append(p.trs, newTRS(uint8(len(p.trs)), p))
	}

	for i := cfg.NumDCT; i < len(p.dct); i++ {
		p.dct[i] = nil
	}
	if len(p.dct) > cfg.NumDCT {
		p.dct = p.dct[:cfg.NumDCT]
	}
	for _, d := range p.dct {
		d.reset(cfg.Design)
	}
	for len(p.dct) < cfg.NumDCT {
		p.dct = append(p.dct, newDCT(uint8(len(p.dct)), p))
	}

	p.gw.reset()
	p.ts.reset()
	p.arb.reset()
	p.gw.initCredits()
	p.rebuildHorizon()
	return nil
}

// Config returns the configuration the accelerator was built with.
func (p *Picos) Config() Config { return p.cfg }

// Now returns the current cycle.
func (p *Picos) Now() uint64 { return p.now }

// Step advances the model by one cycle, evaluating every unit — the
// plainest possible reference semantics, kept deliberately free of
// scheduling cleverness so the cycle-stepped loop stays the ground
// truth the event-driven fast path is differentially tested against.
// Unit evaluation order is irrelevant because every channel is a
// registered FIFO. Each unit is rekeyed right after its step, so the
// horizon keys stay exact under either loop. (The fast path advances
// with stepDue instead, which skips units the keys prove cannot act;
// the two are equivalent by construction and by the equivalence suite.)
//
//picos:hotpath
func (p *Picos) Step() {
	now := p.now
	for _, d := range p.dct {
		d.step(now, true)
		p.hkey[d.hid] = d.nextEvent()
	}
	for _, t := range p.trs {
		t.step(now)
		p.hkey[t.hid] = t.nextEvent()
	}
	p.ts.step(now)
	p.hkey[p.ts.hid] = p.ts.nextEvent()
	p.arb.step(now)
	p.hkey[p.arb.hid] = p.arb.nextEvent()
	p.gw.step(now)
	p.hkey[p.gw.hid] = p.gw.nextEvent()
	p.now++
}

// stepDue advances the model by one cycle like Step, but only evaluates
// the units whose horizon key is due: a key is exact (horizon.go), and
// a unit whose nextEvent lies in the future provably cannot act this
// cycle, since an early-stamped queue can never deliver before its
// head's visibility cycle. A blocked GW is also stepped when gw.retry
// says a credit came back or a TM slot was freed earlier in this cycle
// (DCTs and TRSs step before the GW). Any other retry of a blocked GW,
// or of a stalled or parked DCT dependence, would re-fail with the
// answer it gave last — a DCT's answer changes only with its own DM and
// VM, at its own release events, and a parked dependence retries only
// when a version recycle or a registration taking the last VM entry
// owes it one through parkedRetryAt — so stepDue charges the cycle's
// stall counters without running the retry, exactly as skipTo does.
// Every stepped unit is rekeyed right after its step.
//
//picos:hotpath
func (p *Picos) stepDue() {
	now := p.now
	for _, d := range p.dct {
		if p.hkey[d.hid] <= now {
			d.step(now, false)
			p.hkey[d.hid] = d.nextEvent()
		} else {
			d.chargeStall(1)
		}
	}
	for _, t := range p.trs {
		if p.hkey[t.hid] <= now {
			t.step(now)
			p.hkey[t.hid] = t.nextEvent()
		}
	}
	if ts := p.ts; p.hkey[ts.hid] <= now {
		ts.step(now)
		p.hkey[ts.hid] = ts.nextEvent()
	}
	if a := p.arb; p.hkey[a.hid] <= now {
		a.step(now)
		p.hkey[a.hid] = a.nextEvent()
	}
	if g := p.gw; g.blocked && g.retry || p.hkey[g.hid] <= now {
		g.step(now)
		p.hkey[g.hid] = g.nextEvent()
	} else {
		g.chargeStall(1)
	}
	p.now++
}

// NextEvent returns the earliest cycle, clamped to the current one, at
// which any unit can make progress without external input: every unit
// exposes the visibility stamp of its next consumable queue head gated
// by its busy timer. ok is false when no unit will ever act again on its
// own — the accelerator is either drained or waiting on an external
// Submit/NotifyFinish (admission-blocked and conflict-stalled heads do
// not count: their per-cycle retries provably re-fail until an external
// finish frees resources, and skipping them is what the fast path is
// for). The keys are kept exact as units step and inputs arrive, so the
// answer is one linear scan of them.
//
//picos:hotpath
func (p *Picos) NextEvent() (uint64, bool) {
	at := p.horizon()
	if at == noEvent {
		return 0, false
	}
	if at < p.now {
		at = p.now
	}
	return at, true
}

// ReadyAt returns the cycle the Task Scheduler's current dispatch
// candidate becomes poppable with PopReady, for harnesses that want to
// fast-forward to it. ok is false when the ready store is empty.
func (p *Picos) ReadyAt() (uint64, bool) { return p.ts.nextReadyAt() }

// RunTo advances the model to cycle, with exactly the state and
// statistics that calling Step (cycle - Now()) times would produce: it
// steps the units only at cycles where NextEvent says one can make
// progress and leaps over the dead stretches in between, batch-adding
// the per-cycle stall counters (GW admission blocking, DCT memory
// stalls) the skipped retries would have accrued. A target at or before
// the current cycle is a no-op; the clock never rewinds.
//
//picos:hotpath
func (p *Picos) RunTo(cycle uint64) {
	for p.now < cycle {
		next, ok := p.NextEvent()
		if !ok || next >= cycle {
			p.skipTo(cycle)
			return
		}
		if next > p.now {
			p.skipTo(next)
		}
		p.stepDue()
	}
}

// RunToReady advances like RunTo but returns as soon as a step grows
// the Task Scheduler's ready store, leaving the clock one cycle past
// that step — the first cycle an external observer could notice the new
// ready task, exactly when per-cycle stepping would surface it. Unlike
// RunTo it also returns, without jumping, when the accelerator runs out
// of internal events before cycle: the caller re-plans from the cycle
// reached. Harnesses that would act on a ready task (an idle worker, a
// free link slot) drive bursts with this instead of bouncing after
// every internal event.
//
//picos:hotpath
func (p *Picos) RunToReady(cycle uint64) {
	for p.now < cycle {
		next, ok := p.NextEvent()
		if !ok {
			return
		}
		if next >= cycle {
			p.skipTo(cycle)
			return
		}
		if next > p.now {
			p.skipTo(next)
		}
		ready := p.ts.readyLen()
		p.stepDue()
		if p.ts.readyLen() > ready {
			return
		}
	}
}

// RunOut processes every event the accelerator can still produce
// without external input, leaving the clock at the last one. Harnesses
// call it once all external traffic is finished, to let the final
// finish walks and releases drain.
//
//picos:hotpath
func (p *Picos) RunOut() {
	for {
		next, ok := p.NextEvent()
		if !ok {
			return
		}
		if next > p.now {
			p.skipTo(next)
		}
		p.stepDue()
	}
}

// skipTo advances the clock across a stretch where no unit can make
// progress, charging the stall counters that cycle-by-cycle stepping
// would have charged: a blocked GW retries (and re-fails) admission
// every cycle, and a stalled DCT head or parked dependence retries (and
// re-fails) its store every cycle. The retries are state-idempotent, so
// only the counters need accounting.
//
//picos:hotpath
func (p *Picos) skipTo(cycle uint64) {
	if cycle <= p.now {
		return
	}
	delta := cycle - p.now
	p.gw.chargeStall(delta)
	for _, d := range p.dct {
		d.chargeStall(delta)
	}
	p.now = cycle
}

// StepTo advances the clock without evaluating units; callers use it to
// fast-forward across provably idle stretches. It panics when the
// accelerator is not Idle(): skipping cycles with units active or
// queues pending would silently drop scheduled work, a harness bug that
// otherwise surfaces only as a wedged or subtly wrong schedule far from
// its cause. Admission-blocked and conflict-stalled heads pass Idle()
// (only an external finish can release them), so the skipped stretch
// charges their per-cycle stall counters exactly as stepping through it
// would — the same batching skipTo does for the event-driven fast path.
// A target at or before the current cycle is a no-op (the clock never
// rewinds).
func (p *Picos) StepTo(cycle uint64) {
	if cycle <= p.now {
		return
	}
	if !p.Idle() {
		panic(fmt.Sprintf("picos: StepTo(%d) at cycle %d while the accelerator is busy; fast-forward requires Idle()", cycle, p.now))
	}
	p.skipTo(cycle)
}

// ErrNewQFull is returned by Submit when Config.NewQDepth bounds the
// new-task queue and it is full. The task was NOT queued: the submitter
// owns the descriptor and must retry — dropping it would lose the task,
// which the platform's drain check (submitted vs completed counts)
// surfaces as a harness bug.
var ErrNewQFull = errors.New("picos: new-task queue full")

// ErrUnadmittable is returned by Submit under the avoid-deadlock
// admission policies when the task's dependence set provably cannot fit
// the dependence memory: more of its addresses hash to one (shard, DM
// set) pair than the design has ways, so registration could never
// complete and the task would wedge the fabric. The task was NOT
// queued; the caller decides whether to drop or park the descriptor
// (match with errors.Is).
var ErrUnadmittable = errors.New("picos: task dependence set cannot fit any DM set under this design")

// unadmittable is the avoid-deadlock feasibility check: it reports
// whether any (shard, DM set) pair is demanded by more dependences than
// the design has ways. The check is stateless — it depends only on the
// addresses and the configured hash — so both submit-side loops agree
// and a refused task is refused on every engine identically.
func (p *Picos) unadmittable(deps []trace.Dep) bool {
	ways := p.cfg.Design.Ways()
	if len(deps) <= ways {
		return false
	}
	for i := range deps {
		shard := p.dctOf(deps[i].Addr)
		set := p.dct[shard].dm.index(deps[i].Addr)
		n := 1
		for j := 0; j < i; j++ {
			if p.dctOf(deps[j].Addr) == shard && p.dct[shard].dm.index(deps[j].Addr) == set {
				n++
			}
		}
		if n > ways {
			return true
		}
	}
	return false
}

// Submit pushes a new task into the GW's new-task queue (N1), which
// models the memory-mapped submission buffer. With the default unbounded
// queue it fails only for tasks the hardware cannot represent: more than
// MaxDeps dependences (the TMX holds 15) or duplicate addresses within
// one task. With Config.NewQDepth set it additionally returns ErrNewQFull
// when the buffer is full, and the caller must park the descriptor and
// retry — the backpressure edge of the creation run-ahead pipeline.
//
//picos:hotpath
func (p *Picos) Submit(id uint32, deps []trace.Dep) error {
	if len(deps) > trace.MaxDeps {
		//lint:ignore hotalloc cold rejection path: a malformed task aborts the run, so this never executes in a hot loop
		return fmt.Errorf("picos: task %d has %d dependences; the TMX holds %d", id, len(deps), trace.MaxDeps)
	}
	for i := 0; i < len(deps); i++ {
		for j := i + 1; j < len(deps); j++ {
			if deps[i].Addr == deps[j].Addr {
				//lint:ignore hotalloc cold rejection path: a malformed task aborts the run, so this never executes in a hot loop
				return fmt.Errorf("picos: task %d repeats dependence address %#x", id, deps[i].Addr)
			}
		}
	}
	if p.cfg.Admission.AvoidsDeadlock() && p.unadmittable(deps) {
		return ErrUnadmittable
	}
	if !p.NewQRoom() {
		return ErrNewQFull
	}
	p.gw.newQ.push(submittedTask{id: id, deps: deps}, p.now+1)
	p.stats.TasksSubmitted++
	return nil
}

// NewQRoom reports whether the GW new-task queue can accept a Submit
// right now: always true with the default unbounded queue, and true
// while the queue holds fewer than Config.NewQDepth tasks otherwise.
// Platform harnesses use it to decide between submitting and parking.
func (p *Picos) NewQRoom() bool {
	return p.cfg.NewQDepth <= 0 || p.gw.newQ.len() < p.cfg.NewQDepth
}

// NotifyFinish returns a finished task to the GW (F1).
func (p *Picos) NotifyFinish(h TaskHandle) {
	p.gw.finQ.push(h, p.now+1)
}

// PopReady hands one ready task to a worker, if any is dispatchable.
func (p *Picos) PopReady() (ReadyTask, bool) {
	return p.ts.popReady(p.now)
}

// ReadyCount returns the number of tasks currently held by the TS.
func (p *Picos) ReadyCount() int { return p.ts.readyLen() }

// InFlight returns the number of tasks resident in TM0 slots.
func (p *Picos) InFlight() int {
	n := 0
	for _, t := range p.trs {
		n += t.tm.live()
	}
	return n
}

// Idle reports that stepping without external input cannot change state:
// every unit is quiescent and every queue is empty, except for
// admission-blocked or conflict-stalled heads that only an external
// finish can release. The check reads the exact horizon keys: a unit
// is active exactly when it has a future event or a running busy timer,
// so "no key holds a horizon and the clock has passed every busy
// deadline" is the whole condition.
//
//picos:hotpath
func (p *Picos) Idle() bool {
	return p.horizon() == noEvent && p.maxBusy <= p.now
}

// Stats returns the run counters.
func (p *Picos) Stats() *Stats { return &p.stats }

// Drained verifies the leak-freedom invariant at the end of a run: all
// submitted tasks completed, every TM slot is free, every VM entry
// recycled, every DM entry invalid, and no protocol errors occurred.
func (p *Picos) Drained() error {
	if p.stats.ProtocolErrors != 0 {
		return fmt.Errorf("picos: %d protocol errors", p.stats.ProtocolErrors)
	}
	if p.stats.TasksCompleted != p.stats.TasksSubmitted {
		return fmt.Errorf("picos: %d tasks submitted but %d completed",
			p.stats.TasksSubmitted, p.stats.TasksCompleted)
	}
	for i, t := range p.trs {
		if live := t.tm.live(); live != 0 {
			return fmt.Errorf("picos: TRS%d leaks %d TM slots", i, live)
		}
	}
	for i, d := range p.dct {
		if live := d.vm.live(); live != 0 {
			return fmt.Errorf("picos: DCT%d leaks %d VM entries", i, live)
		}
		if live := d.dm.live(); live != 0 {
			return fmt.Errorf("picos: DCT%d leaks %d DM entries", i, live)
		}
		if d.hasParked {
			return fmt.Errorf("picos: DCT%d still parks a conflicting dependence of task %v", i, d.parked.task)
		}
	}
	if p.ts.readyLen() != 0 {
		return fmt.Errorf("picos: TS still holds %d ready tasks", p.ts.readyLen())
	}
	return nil
}

// dctOf partitions addresses across DCT shards with the configured
// ShardHash. The same address must always map to the same shard so its
// whole version chain lives together.
//
//picos:hotpath
func (p *Picos) dctOf(addr uint64) int {
	if len(p.dct) == 1 {
		return 0
	}
	return Shard(p.cfg.ShardHash, addr, len(p.dct))
}

// Shard is the address-to-shard partition function of the dependence
// fabric, exported so workload generators can co-locate or scatter
// dependence addresses across shards on purpose (the patterns package's
// layout=shard does the former).
//
//picos:hotpath
func Shard(hash ShardHash, addr uint64, numDCT int) int {
	if numDCT <= 1 {
		return 0
	}
	if hash == ShardLowBits {
		// Word-address low bits (operand bits [1:0] are constant zero,
		// as for the direct DM index).
		return int((addr >> 2) % uint64(numDCT))
	}
	h := addr
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	return int(h % uint64(numDCT))
}
