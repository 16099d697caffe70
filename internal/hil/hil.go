// Package hil models the paper's Hardware-In-the-Loop simulation
// platform (Section IV-B, Figure 6): the Picos accelerator in the
// programmable logic, driven either by PL-side workers (HW-only mode) or
// by the ARM processing system over an AXI-Stream link whose messages
// cost 200-300 cycles each (HW+communication and Full-system modes). In
// Full-system mode the ARM additionally pays the Nanos++ task creation
// and submission cost for every task before it reaches the accelerator.
package hil

import (
	"fmt"
	"sync"

	"repro/internal/faults"
	"repro/internal/picos"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Mode selects the platform operating mode.
type Mode uint8

const (
	// HWOnly: all tasks preloaded into the accelerator, workers
	// implemented in the PL; no communication cost (solid line of
	// Figure 6).
	HWOnly Mode = iota
	// HWComm: HW-only plus the AXI communication cost for every new,
	// ready and finished task message, serialized over the single
	// stream interface.
	HWComm
	// FullSystem: the close-loop mode — ARM-side task creation and
	// submission (Nanos++ master path) plus communication plus the
	// accelerator.
	FullSystem
)

// String names the mode as the paper does.
func (m Mode) String() string {
	switch m {
	case HWOnly:
		return "HW-only"
	case HWComm:
		return "HW+comm."
	case FullSystem:
		return "Full-system"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// CommTiming models the AXI-Stream link: per-message occupancy of the
// interface plus in-flight latency, and a one-time lazy setup of the
// stream queues and status registers incurred at the first transfer.
// Calibrated so that HW+comm mode reproduces Table IV (L1st ~1172,
// thrTask ~740).
type CommTiming struct {
	SendNewOcc    uint64 // interface busy cycles per new-task message
	FetchReadyOcc uint64 // per ready-task retrieval
	SendFinOcc    uint64 // per finished-task message
	Flight        uint64 // additional in-flight latency per message
	Setup         uint64 // one-time queue/status-register setup cost
}

// DefaultCommTiming returns the calibrated link cost ("around 200 to 300
// cycles for each message").
func DefaultCommTiming() CommTiming {
	return CommTiming{
		SendNewOcc:    290,
		FetchReadyOcc: 230,
		SendFinOcc:    220,
		Flight:        15,
		Setup:         460,
	}
}

// MasterTiming models the ARM-side Nanos++ master path in Full-system
// mode: constant task creation plus the submission cost. Submission of a
// task with dependences pays a fixed dependence-bookkeeping entry cost
// plus a light per-dependence marshaling cost (the heavy dependence
// analysis is what Picos offloads); a task without dependences takes the
// cheap no-deps path. Calibrated to Table IV Full-system rows
// (thrTask 2729/3125/3413 for 0/1/15 deps).
type MasterTiming struct {
	Create       uint64 // task creation, independent of #deps
	SubmitNoDeps uint64 // submission of a dependence-free task
	SubmitBase   uint64 // submission entry cost when deps > 0
	SubmitPerDep uint64 // marshaling per dependence
}

// DefaultMasterTiming returns the calibrated ARM master cost.
func DefaultMasterTiming() MasterTiming {
	return MasterTiming{Create: 1800, SubmitNoDeps: 620, SubmitBase: 995, SubmitPerDep: 21}
}

// SubmitCost returns the submission cost for a task with nDeps.
func (m MasterTiming) SubmitCost(nDeps int) uint64 {
	if nDeps == 0 {
		return m.SubmitNoDeps
	}
	return m.SubmitBase + uint64(nDeps)*m.SubmitPerDep
}

// DefaultRunAhead is the FullSystem master's creation run-ahead window:
// the number of descriptors the Nanos++ master keeps created but not yet
// accepted by the accelerator's submission buffer before it pauses
// creation. Sized like the prototype's descriptor ring; it only ever
// binds when submissions backpressure (a bounded Picos.NewQDepth behind
// a saturated gateway), since an unbounded queue accepts immediately.
const DefaultRunAhead = 16

// Config configures a platform run.
type Config struct {
	Mode Mode
	// Workers is the homogeneous worker count. Mutually exclusive with
	// Classes: when Classes is non-empty the worker count is the sum of
	// the class counts and Workers must be zero.
	Workers int
	// Classes declares heterogeneous worker classes (per-class
	// service-time multipliers, optional task-kind affinity). Empty
	// means Workers identical baseline cores.
	Classes sched.Classes
	// Sched is the ready-task grant policy (sched.FIFO preserves the
	// historical lowest-index semantics bit for bit).
	Sched sched.Policy
	// Steal enables per-class ready queues with deterministic
	// ascending-class victim order.
	Steal  bool
	Picos  picos.Config
	Comm   CommTiming
	Master MasterTiming
	// Watchdog aborts the run if no task starts or finishes for this
	// many cycles (0: default 100M).
	Watchdog uint64
	// Window bounds RunStream's descriptor window: the maximum number of
	// created-but-unretired task descriptors kept live at once, 0
	// meaning unbounded. Run always runs unbounded and ignores it. See
	// stream.go for the retirement rules and how the window composes
	// with Picos.NewQDepth and RunAhead.
	Window int
	// RunAhead bounds the FullSystem master's created-but-unsubmitted
	// descriptor window: while a submission is backpressured (the
	// accelerator's bounded new-task queue is full), the master keeps
	// creating tasks until this many descriptors are waiting, then
	// parks. 0 means DefaultRunAhead; negative disables the bound
	// (infinite run-ahead).
	RunAhead int
	// Faults is the parsed deterministic fault plan injected into the
	// platform (AXI link, workers) and the accelerator (DCT, TRS); nil
	// runs fault-free. Every injection site is nil-gated, so the
	// fault-free path stays byte-identical and allocation-free — the
	// equivalence and alloc suites enforce both.
	Faults *faults.Plan
	// Recovery is the recovery-policy set (bounded link retransmission,
	// fail-stop worker regrant, gateway degrade) consulted when faults
	// land.
	Recovery faults.Recovery
	// FastForward selects the event-driven fast path: the runner jumps
	// the clock straight to the next worker completion, link delivery or
	// accelerator-internal event instead of stepping every cycle. Results
	// are bit-identical to the cycle-stepped loop (the differential
	// equivalence suite in internal/sim enforces it); turn it off to
	// debug with the per-cycle reference. DefaultConfig enables it; the
	// zero Config keeps the cycle-stepped loop.
	FastForward bool
}

// DefaultConfig returns a 12-worker HW-only platform around the paper's
// baseline accelerator.
func DefaultConfig() Config {
	return Config{
		Mode:        HWOnly,
		Workers:     12,
		Picos:       picos.DefaultConfig(),
		Comm:        DefaultCommTiming(),
		Master:      DefaultMasterTiming(),
		RunAhead:    DefaultRunAhead,
		FastForward: true,
	}
}

// Result is the outcome of one platform run.
type Result struct {
	Mode     Mode
	Workers  int
	Makespan uint64 // cycle the last task finished executing
	Baseline uint64 // sequential reference (trace.Baseline)
	Speedup  float64

	Start  []uint64 // per task, cycle execution started
	Finish []uint64 // per task, cycle execution finished
	Order  []uint32 // task IDs in start order

	Stats picos.Stats
	Busy  picos.BusyCycles

	// Latency/throughput probes for Table IV.
	FirstStart uint64  // L1st
	ThrTask    float64 // cycles per additional task

	// Wedged reports a proven model deadlock: tasks remain but no future
	// event exists anywhere in the platform or the accelerator (e.g. an
	// admitted task whose dependences can never all be stored in a full
	// direct-hash DM set). The schedule arrays cover the tasks that did
	// complete; Speedup is zeroed. WedgedAt is the cycle the deadlock
	// was proven.
	Wedged   bool
	WedgedAt uint64

	// TimedOut reports a watchdog expiry: no task started, finished,
	// landed or was refused for Config.Watchdog cycles while a future
	// event still existed (otherwise the wedge proof would have fired) —
	// a livelock or pathological stall, distinct from the proven
	// deadlock Wedged reports. Speedup is zeroed.
	TimedOut bool

	// Fault-injection outcome, all zero on fault-free runs.
	// Faulted reports that at least one configured fault actually fired;
	// a Wedged result with Faulted set is fault-induced, not a model
	// deadlock.
	Faulted bool
	// LostTasks counts tasks permanently lost to faults: new/ready
	// messages dropped past the retransmission budget and in-flight
	// tasks of fail-stopped workers without the regrant policy.
	LostTasks int
	// RecoveredTasks counts recovery successes: dropped messages whose
	// retransmission landed and fail-stopped tasks re-granted through
	// the scheduling layer.
	RecoveredTasks int
	// RefusedTasks counts tasks refused at admission: structurally
	// unadmittable dependence sets under the avoid-deadlock policies
	// plus blocked heads popped by degrade recovery.
	RefusedTasks int
	// RefusedIDs lists the refused task IDs under avoid-deadlock-park
	// (the parking policy keeps the descriptors for the host to act on;
	// plain avoid-deadlock drops refusals after counting them).
	RefusedIDs []uint32
}

// Platform is a reusable HIL engine: one accelerator model plus the
// runner scratch around it. Run resets everything a previous run left
// behind — in place, reusing the DM/VM/TM memories, queue buffers and
// worker heaps — so a warm Platform executes a run with near-zero
// allocations. A Platform is not safe for concurrent use; run one per
// goroutine (the package-level Run keeps a pool of them).
type Platform struct {
	r runner
}

// NewPlatform returns an empty platform; the first Run sizes it.
func NewPlatform() *Platform { return &Platform{} }

// Run drives the trace through the platform under cfg: the streaming
// loop over the trace with an unbounded window, recording the per-task
// schedule. Resets between runs are proven equivalent to a fresh
// platform by the reuse equivalence suite — including after a run that
// wedged.
func (pl *Platform) Run(tr *trace.Trace, cfg Config) (*Result, error) {
	pl.r.ts = *trace.FromTrace(tr)
	cfg.Window = 0
	return pl.r.drive(&pl.r.ts, tr, cfg)
}

// platformPool keeps warm engines across Run calls: sweeps over
// thousands of grid points reuse a per-worker Platform instead of
// rebuilding task/version/dependence memories and queues per run.
var platformPool = sync.Pool{New: func() any { return NewPlatform() }}

// Run drives the trace through a pooled platform.
func Run(tr *trace.Trace, cfg Config) (*Result, error) {
	pl := platformPool.Get().(*Platform)
	res, err := pl.Run(tr, cfg)
	platformPool.Put(pl)
	return res, err
}
