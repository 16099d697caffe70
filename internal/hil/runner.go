package hil

import (
	"errors"
	"fmt"

	"repro/internal/faults"
	"repro/internal/picos"
	"repro/internal/queue"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/table"
	"repro/internal/taskgraph"
	"repro/internal/trace"
)

// busMsgKind labels messages crossing the AXI link.
type busMsgKind uint8

const (
	busNew busMsgKind = iota
	busReady
	busFin
)

type busMsg struct {
	kind busMsgKind
	dup  bool             // axi:dup copy; the receiver discards it
	task uint32           // trace index (busNew)
	rt   picos.ReadyTask  // busReady
	h    picos.TaskHandle // busFin
}

// retryEntry is one dropped link message waiting for retransmission:
// it becomes eligible at cycle at; attempt counts the sends so far.
// The retransmission queue is FIFO — a due entry behind a later-due
// head waits its turn, like any other head-of-line stream.
type retryEntry struct {
	at      uint64
	attempt uint8
	msg     busMsg
}

// deliveryBatch is how many link messages one delivery node can carry.
// The link serializes sends, so same-stamp landings are rare (they need
// zero-occupancy custom timings); a small inline array keeps the common
// single-message node compact while still coalescing bursts.
const deliveryBatch = 4

// delivery is a batch of messages that have left the link and land at
// cycle at. Messages land in msgs order — push order, which is link
// grant order — so batching same-stamp landings into one node changes
// how the FIFO stores them, never the order they are processed.
type delivery struct {
	at   uint64
	n    uint8
	msgs [deliveryBatch]busMsg
}

// stampedTask is a created task available to the link from cycle at.
type stampedTask struct {
	at  uint64
	idx uint32
}

type runner struct {
	cfg Config
	p   *picos.Picos

	// Ingestion state (see stream.go). Every run feeds from src. mat is
	// the trace behind a materialized source, indexed in place; a
	// streamed source keeps its live descriptors in the live table
	// instead. At most window descriptors are live at once (0:
	// unbounded).
	src    trace.Source
	mat    *trace.Trace
	window int
	kinds  []string // src.Kinds()
	live   table.Map[trace.Task]
	// fetched counts committed descriptors (the next task's required
	// ID); lookahead holds a peeked-but-uncommitted streamed task;
	// feedErr parks a mid-stream validation or source error for the run
	// loops; degraded counts the degrade refusals already retired.
	fetched     int
	srcDone     bool
	lookahead   trace.Task
	lookaheadOK bool
	feedErr     error
	degraded    int
	// Running probes for a Result without schedule arrays: duration sum
	// (Baseline), max finish (Makespan), first/last start and start
	// count (FirstStart, ThrTask).
	aggDur       uint64
	aggMakespan  uint64
	aggFirst     uint64
	aggFirstSet  bool
	aggLastStart uint64
	aggStarted   int

	// workers holds the task each busy worker is executing, indexed by
	// worker; occupancy itself lives only in the pool's idle set and
	// busyH, so there is no second copy of busy-state to drift out of
	// sync.
	workers []picos.ReadyTask
	// busyH is a min-heap of busy workers keyed (until, idx): O(log W)
	// updates at dispatch and finish instead of all-worker scans. With
	// heterogeneous classes the until stamps already carry the
	// class-scaled durations, so every fast-forward horizon derived from
	// the heap head stays exact.
	busyH sched.DueHeap

	// pool parks idle workers, buffers the ready tasks it wants and
	// pairs the two under the configured plan; every grant goes through
	// it. one is the reused one-class list of a class-less Config.
	pool sched.Pool[picos.TaskHandle]
	one  sched.Classes

	// ARM master state (FullSystem): when the master core is free again.
	// In Full-system mode the master also drives the AXI write for its
	// own submissions, so the send occupies both the master and the link
	// (that coupling is what makes the Full-system thrTask ~
	// create+submit+send, as in Table IV).
	masterFree uint64
	// createdAhead counts FullSystem descriptors created but not yet
	// accepted by the accelerator's new-task queue (waiting for the
	// link, in flight, or parked after an ErrNewQFull rejection). The
	// master keeps creating while createdAhead < cfg.RunAhead — the
	// creation run-ahead window — and pauses, with the descriptor
	// pipeline full, once the window is exhausted.
	createdAhead int

	// parkedNew holds tasks whose Submit was rejected with ErrNewQFull
	// at link delivery: the descriptor is parked, in arrival order, and
	// retried every evaluated cycle until the queue accepts it — a
	// rejected registration is never dropped.
	parkedNew queue.FIFO[uint32]

	pendingNew queue.FIFO[stampedTask]      // created tasks awaiting the link
	pendingFin queue.FIFO[picos.TaskHandle] // worker completions awaiting the link
	// deliveries holds messages in flight. Landing stamps are assigned
	// as busFree+Flight with busFree strictly increasing, so the FIFO is
	// ordered by `at` and its head is both the next delivery horizon and
	// the next message to land.
	deliveries queue.FIFO[delivery]

	// Ready tasks fetched over the link but not yet running: the fetch
	// reserves a worker (readyInFlight) so the link never over-fetches,
	// and landed tasks wait in readyBacklog until a worker is free.
	readyInFlight int
	readyBacklog  queue.FIFO[picos.ReadyTask]

	busFree  uint64
	busSetup bool // lazy one-time queue setup performed

	// The per-task schedule, recorded only for a materialized source
	// under an unbounded window (nil otherwise).
	start  []uint64
	finish []uint64
	order  []uint32

	done         int
	lastProgress uint64

	// Fault-injection state, all dormant on fault-free runs. flt is the
	// platform-side injector (nil without axi/worker clauses); every use
	// below is nil-gated so the fault-free hot path is untouched.
	flt *faults.PlatformFaults
	// retryQ holds dropped link messages awaiting retransmission under
	// the retry recovery policy. retryNew counts the queued busNew
	// entries: task submission order is the program order the
	// dependence analysis relies on, so fresh new-task sends stall
	// behind an outstanding submission retransmission (head-of-line),
	// while ready grants and finish notifications — commutative across
	// tasks — may overtake it.
	retryQ   queue.FIFO[retryEntry]
	retryNew int
	// dead counts fail-stopped workers; lost/recovered/refused account
	// tasks that can no longer produce a completion (see accounted).
	dead       int
	lost       int
	recovered  int
	refused    int
	refusedIDs []uint32 // refused task IDs under avoid-deadlock-park
}

// drive runs src through the platform under cfg.
func (r *runner) drive(src trace.Source, cfg Config) (*Result, error) {
	var res *Result
	err := r.reset(src, cfg)
	if err == nil {
		res, err = r.run()
	}
	// Drop the references the run handed out so a pooled runner does not
	// retain them, error paths included.
	r.scrub()
	return res, err
}

// reset prepares the runner for a run, reusing every allocation a
// previous run left behind: the accelerator (picos.Reset), the worker
// heaps, the link queues, the in-flight buffers and the live table. Only
// the per-task schedule arrays are freshly allocated — they escape into
// the Result.
func (r *runner) reset(src trace.Source, cfg Config) error {
	if len(cfg.Classes) > 0 {
		if cfg.Workers != 0 {
			return fmt.Errorf("hil: both Workers (%d) and Classes (%q) set", cfg.Workers, cfg.Classes.String())
		}
		if err := cfg.Classes.Validate(); err != nil {
			return err
		}
		cfg.Workers = cfg.Classes.Workers()
	}
	if cfg.Workers <= 0 {
		return fmt.Errorf("hil: need at least 1 worker, got %d", cfg.Workers)
	}
	if cfg.Mode > FullSystem {
		return fmt.Errorf("hil: unknown mode %d", cfg.Mode)
	}
	if cfg.Watchdog == 0 {
		cfg.Watchdog = 100_000_000
	}
	if cfg.Comm == (CommTiming{}) {
		cfg.Comm = DefaultCommTiming()
	}
	if cfg.Master == (MasterTiming{}) {
		cfg.Master = DefaultMasterTiming()
	}
	if cfg.RunAhead == 0 {
		cfg.RunAhead = DefaultRunAhead
	}
	if err := src.Rewind(); err != nil {
		return fmt.Errorf("hil: %w", err)
	}
	r.src, r.window, r.kinds = src, cfg.Window, src.Kinds()
	// A materialized source is validated once, here; a streamed one task
	// by task as it arrives (srcPeek).
	if r.mat = trace.AlreadyMaterialized(src); r.mat != nil {
		if err := r.mat.Validate(); err != nil {
			return fmt.Errorf("hil: %w", err)
		}
	}
	// Under an unbounded window a materialized source is the whole graph.
	var whole *trace.Trace
	if cfg.Window == 0 {
		whole = r.mat
	}
	// Split the fault plan into its two injectors before the accelerator
	// is configured: the dct/trs clauses (plus the degrade knob) ride
	// inside picos.Config, the axi/worker clauses stay platform-side.
	// Both are nil on a fault-free run, which keeps every injection site
	// on its nil fast path and the reset allocation-free.
	if cfg.Picos.Faults == nil {
		cfg.Picos.Faults = cfg.Faults.PicosSide(cfg.Recovery)
	}
	r.flt = cfg.Faults.PlatformSide(cfg.Recovery)
	if r.p == nil {
		p, err := picos.New(cfg.Picos)
		if err != nil {
			return err
		}
		r.p = p
	} else if err := r.p.Reset(cfg.Picos); err != nil {
		return err
	}
	r.cfg = cfg

	if cap(r.workers) >= cfg.Workers {
		r.workers = r.workers[:cfg.Workers]
	} else {
		r.workers = make([]picos.ReadyTask, cfg.Workers)
	}
	for i := range r.workers {
		r.workers[i] = picos.ReadyTask{}
	}
	classes := cfg.Classes
	if len(classes) == 0 {
		if r.one == nil {
			r.one = sched.Single(cfg.Workers)
		}
		r.one[0].Count = cfg.Workers
		classes = r.one
	}
	// A stream's kind usage and bottom levels are unknown up front: the
	// class list must cover every declared kind, and the priority policy
	// is refused by the pool. Only an affinity list can leave a kind
	// uncovered, so a uniform platform skips the check.
	var prio []uint64
	if whole != nil && cfg.Sched == sched.Priority {
		prio = taskgraph.Build(whole).BottomLevels()
	}
	if !classes.Uniform() {
		var present []bool
		if whole != nil {
			present = make([]bool, len(r.kinds)+1)
			for i := range whole.Tasks {
				present[whole.Tasks[i].Kind] = true
			}
		}
		if err := classes.CheckCoverage(r.kinds, present); err != nil {
			return err
		}
	}
	if err := r.pool.Reset(classes, cfg.Sched, cfg.Steal, r.kinds, prio); err != nil {
		return fmt.Errorf("hil: %w", err)
	}
	for i := 0; i < cfg.Workers; i++ {
		r.pool.Park(i)
	}
	r.busyH = r.busyH[:0]

	r.masterFree = 0
	r.createdAhead = 0
	r.parkedNew.Reset()
	r.pendingNew.Reset()
	r.pendingFin.Reset()
	r.deliveries.Reset()
	r.readyInFlight = 0
	r.readyBacklog.Reset()
	r.busFree, r.busSetup = 0, false
	r.retryQ.Reset()
	r.retryNew = 0
	r.dead, r.lost, r.recovered, r.refused = 0, 0, 0, 0
	r.refusedIDs = nil

	r.fetched, r.srcDone, r.lookaheadOK, r.feedErr, r.degraded = 0, false, false, nil, 0
	r.aggDur, r.aggMakespan, r.aggFirst, r.aggLastStart = 0, 0, 0, 0
	r.aggFirstSet, r.aggStarted = false, 0
	if whole != nil {
		n := len(whole.Tasks)
		r.start = make([]uint64, n)
		r.finish = make([]uint64, n)
		r.order = make([]uint32, 0, n)
	}
	r.done, r.lastProgress = 0, 0
	return nil
}

// scrub drops the references a finished run handed out (the source, the
// trace, the schedule arrays now owned by the Result) so a pooled runner
// does not retain them; the reusable scratch stays.
func (r *runner) scrub() {
	r.src, r.mat, r.kinds = nil, nil, nil
	r.lookahead, r.feedErr = trace.Task{}, nil
	r.live.Reset() // keep the table's capacity, drop its descriptors
	r.start, r.finish, r.order = nil, nil, nil
}

// liveWork reports queued work that always makes progress by itself:
// link messages, fetched tasks and pending retransmissions.
// Backpressured submissions (see backpressured) are NOT included — they
// progress only while the accelerator's new-task queue has room.
func (r *runner) liveWork() bool {
	return r.pendingNew.Len() > 0 || r.pendingFin.Len() > 0 || r.deliveries.Len() > 0 ||
		r.readyBacklog.Len() > 0 || r.retryQ.Len() > 0
}

// accounted is the number of fetched tasks that can no longer produce a
// completion event: finished, refused at admission (structurally or by
// degrade recovery inside the accelerator), or permanently lost to a
// fault. Every other fetched task is live, so the window and the run
// loops' termination both count on it: a faulted run with losses still
// drains instead of spinning forever.
func (r *runner) accounted() int {
	n := r.done + r.refused + r.lost
	if f := r.cfg.Picos.Faults; f != nil {
		n += len(f.RefusedIDs)
	}
	return n
}

// refuse accounts one admission refusal; under the parking policy the
// task ID is kept for the Result so the host can see exactly which
// descriptors to re-plan.
func (r *runner) refuse(idx uint32) {
	r.refused++
	if r.cfg.Picos.Admission == picos.AdmitAvoidDeadlockPark {
		// Task IDs equal trace indices (validated), so idx is the ID —
		// on both the materialized and the streaming path.
		r.refusedIDs = append(r.refusedIDs, idx)
	}
	r.retire(idx)
}

func (r *runner) pendingWork() bool {
	return r.liveWork() || r.backpressured()
}

// backpressured reports that tasks are waiting on new-task queue space:
// parked rejections or a window-open HW-only feed. Their retry can only
// succeed after the GW pops the queue — an accelerator-internal event —
// so while this holds the fast path adds the accelerator's event
// horizon to its wake candidates. A feed blocked on the *window* is not
// included: it resumes at a retirement, and every platform-side
// retirement cycle (worker finish, refusal, loss) is already a wake
// candidate (degrade refusals are covered in nextWake).
func (r *runner) backpressured() bool {
	return r.parkedNew.Len() > 0 || (r.cfg.Mode == HWOnly && r.windowOpen() && r.srcHasNext())
}

// masterWindowOpen reports whether the FullSystem master may create the
// next task: the run-ahead window has room (cfg.RunAhead < 0 disables
// the bound).
func (r *runner) masterWindowOpen() bool {
	return r.cfg.RunAhead < 0 || r.createdAhead < r.cfg.RunAhead
}

// stepSubmits retries parked submissions and, in HW-only mode, submits
// straight from the source while the descriptor window and the
// accelerator's new-task queue both have room. A task becomes live at
// the successful (or refused) submit — an ErrNewQFull rejection leaves
// it uncommitted, not parked. Every task submitted here was validated,
// so only ErrNewQFull can come back.
//
//picos:hotpath
func (r *runner) stepSubmits(now uint64) {
	for r.p.NewQRoom() {
		idx, ok := r.parkedNew.Peek()
		if !ok {
			break
		}
		task := r.taskAt(idx)
		err := r.p.Submit(task.ID, task.Deps)
		if errors.Is(err, picos.ErrUnadmittable) {
			r.parkedNew.Pop()
			if r.cfg.Mode == FullSystem {
				r.createdAhead--
			}
			r.refuse(idx)
			r.lastProgress = now
			continue
		}
		if err != nil {
			return // queue refilled mid-loop; keep the descriptor parked
		}
		r.parkedNew.Pop()
		if r.cfg.Mode == FullSystem {
			r.createdAhead--
		}
		r.lastProgress = now
	}
	if r.cfg.Mode != HWOnly {
		return
	}
	for r.windowOpen() && r.p.NewQRoom() {
		task, ok := r.srcPeek()
		if !ok {
			return
		}
		err := r.p.Submit(task.ID, task.Deps)
		if errors.Is(err, picos.ErrUnadmittable) {
			r.refuse(r.srcCommit(task))
			r.lastProgress = now
			continue
		}
		if err != nil {
			return
		}
		r.srcCommit(task)
		r.lastProgress = now
	}
}

func (r *runner) run() (*Result, error) {
	if r.cfg.FastForward {
		return r.runFast()
	}
	return r.runRef()
}

// stepPlatform runs the platform-side steps of one evaluated cycle, in
// the one order both loops share: degrade retirements and fail-stops
// first, then workers, link deliveries, the feed, submissions, the
// master, the link and the grants. It returns a mid-stream validation
// or source error parked by the feed, which ends the run.
//
//picos:hotpath
func (r *runner) stepPlatform(now uint64) error {
	if f := r.cfg.Picos.Faults; f != nil {
		r.retireDegraded(f)
	}
	if r.flt != nil {
		r.applyStops(now)
	}
	r.stepWorkers(now)
	r.stepDeliveries(now)
	r.stepFeed(now)
	r.stepSubmits(now)
	r.stepMaster(now)
	r.stepBus(now)
	r.dispatch(now)
	return r.feedErr
}

// runRef is the cycle-stepped reference loop: the platform-side steps
// run every cycle and the accelerator is stepped one cycle at a time,
// except across stretches where everything is provably idle. It is the
// ground truth the event-driven fast path is differentially tested
// against.
func (r *runner) runRef() (*Result, error) {
	for r.tasksOutstanding() || !r.p.Idle() || r.pendingWork() {
		now := r.p.Now()
		if err := r.stepPlatform(now); err != nil {
			return nil, err
		}
		if r.tasksOutstanding() && r.wedged(now) {
			return r.wedgedResult(now), nil
		}
		if next, ok := r.quiescentUntil(now); ok && next > now+1 {
			r.p.StepTo(next)
		} else {
			r.p.Step()
		}
		if r.watchdogExpired() {
			return r.timedOutResult(), nil
		}
	}
	if r.feedErr != nil {
		return nil, r.feedErr
	}
	return r.result(), nil
}

// wedged proves a deadlock at the current cycle: no worker is running,
// no message is pending or in flight, the master has nothing left to
// create, no ready task is waiting, and the accelerator itself has no
// future event — stepping any number of cycles cannot change anything,
// yet tasks remain. (A conflict- or admission-stalled queue head does
// not count as a future event: only an external finish could release
// it, and there is none left.)
func (r *runner) wedged(now uint64) bool {
	if !r.p.Idle() {
		return false
	}
	// Link messages, pending retransmissions and in-flight deliveries
	// always make progress by themselves.
	if r.pendingNew.Len() > 0 || r.pendingFin.Len() > 0 || r.deliveries.Len() > 0 ||
		r.retryQ.Len() > 0 {
		return false
	}
	// Fetched or re-granted ready tasks are waiting work only while a
	// worker survives to take them: a fault plan that fail-stops every
	// worker leaves them provably stranded.
	alive := r.dead < r.cfg.Workers
	if alive && r.readyBacklog.Len() > 0 {
		return false
	}
	// Parked or unfed tasks can still progress only while the new-task
	// queue has room (stepSubmits ran this cycle, so room here means the
	// queue refused them for another reason — impossible — or they will
	// submit next cycle); with the queue full they are as dead as the
	// accelerator behind it.
	if r.backpressured() && r.p.NewQRoom() {
		return false
	}
	// An HW+comm feed with window room and tasks left will hand more
	// work to the link next cycle. (A refusal retiring a parked head this
	// cycle can open the window after stepFeed already ran.)
	if r.cfg.Mode == HWComm && r.windowOpen() && r.srcHasNext() {
		return false
	}
	if len(r.busyH) > 0 {
		return false
	}
	// Ready tasks buffered platform-side are waiting work: with every
	// kind's class coverage validated at reset, a grantable pairing (or
	// a busy worker that will free one) always exists among survivors.
	if alive && r.pool.Len() > 0 {
		return false
	}
	// A master with tasks left to create is alive only while its
	// run-ahead window and the descriptor window have room, or it is
	// still paying for the previous creation; a window pinned full by a
	// dead accelerator is not. With the descriptor window shut the live
	// tasks holding it are judged by the clauses above/below.
	if r.cfg.Mode == FullSystem && r.srcHasNext() &&
		((r.masterWindowOpen() && r.windowOpen()) || r.masterFree > now) {
		return false
	}
	if alive && r.p.ReadyCount() > 0 {
		return false
	}
	if _, ok := r.p.NextEvent(); ok {
		return false
	}
	return true
}

// wedgedResult reports a proven deadlock as a structured partial result:
// Wedged set, WedgedAt the cycle of proof, the schedule arrays covering
// the tasks that did complete. The exact WedgedAt cycle (and the stall
// counters that keep accruing while the stalled heads retry) may differ
// slightly between the fast and cycle-stepped loops — the two detect the
// same dead state, but prove it at different points of their iteration.
func (r *runner) wedgedResult(now uint64) *Result {
	res := r.result()
	res.Wedged = true
	res.WedgedAt = now
	res.Speedup = 0 // meaningless for a partial schedule
	return res
}

// runFast is the event-driven fast path: every iteration runs the
// platform-side steps at the current cycle exactly like the reference
// loop, then advances the accelerator straight to the next cycle
// anything — a unit, a worker, the link or the master — can act, instead
// of stepping through the dead cycles in between. Picos.RunTo replays
// the accelerator's internal events (and batch-accounts its stall
// counters) on the way, so the observable schedule and statistics are
// bit-identical to runRef.
//
//picos:hotpath
func (r *runner) runFast() (*Result, error) {
	for r.tasksOutstanding() || !r.p.Idle() || r.pendingWork() {
		now := r.p.Now()
		if err := r.stepPlatform(now); err != nil {
			return nil, err
		}
		interested := r.readyInterest()
		next, ok := r.nextWake(now, interested)
		if interested {
			// The platform would act on a task becoming ready, so the
			// accelerator may only run ahead until one appears: RunToReady
			// surfaces one cycle after the step that grows the ready
			// store, where the loop re-plans (and the new candidate's
			// visibility stamp becomes a wake-up candidate).
			target := ^uint64(0)
			if ok {
				target = next
			}
			r.p.RunToReady(target)
			if r.p.Now() > now {
				if r.watchdogExpired() {
					return r.timedOutResult(), nil
				}
				continue
			}
			// No internal event advanced the clock: fall through to the
			// platform-side candidates.
		}
		if !ok {
			if !r.tasksOutstanding() && !r.pendingWork() {
				// All external traffic is finished: let the accelerator
				// drain its remaining finish walks and releases, exactly
				// what the reference loop steps through before its Idle()
				// exit condition turns true.
				r.p.RunOut()
				break
			}
			// Genuine deadlock: tasks remain but no future event exists
			// anywhere — reported structurally so sweeps over deadlocking
			// configurations stay machine-readable.
			return r.wedgedResult(now), nil
		}
		r.p.RunTo(next)
		if r.watchdogExpired() {
			return r.timedOutResult(), nil
		}
	}
	if r.feedErr != nil {
		return nil, r.feedErr
	}
	return r.result(), nil
}

// watchdogExpired reports that no task has started, finished, landed
// or been refused for more than the configured number of cycles.
func (r *runner) watchdogExpired() bool {
	return r.p.Now()-r.lastProgress > r.cfg.Watchdog
}

// timedOutResult reports a watchdog expiry as a structured partial
// result: the run made no progress for Watchdog cycles while a future
// event still existed (otherwise the wedge proof would have fired), so
// this is a livelock or pathological stall, not a proven deadlock —
// and, when a fault fired, possibly fault-induced starvation.
func (r *runner) timedOutResult() *Result {
	res := r.result()
	res.TimedOut = true
	res.Speedup = 0 // meaningless for a partial schedule
	return res
}

// readyInterest reports whether the platform would act on a task
// becoming ready: the pool wanting another task in HW-only mode (an
// eager plan always, an on-demand one while a worker is idle), spare
// fetch capacity on the link in the comm modes. The comm modes count
// the pool's buffer against the link's fetch window, so the link never
// fetches more tasks than there are workers to absorb them.
func (r *runner) readyInterest() bool {
	if r.cfg.Mode == HWOnly {
		return r.pool.Wants()
	}
	return r.pool.Idle() > r.readyInFlight+r.readyBacklog.Len()+r.pool.Len()
}

// nextWake returns the next cycle the platform loop must be evaluated
// at: the earliest of every platform-side event — worker completions,
// link deliveries, master-core availability, stamped submissions, the
// link freeing up with work queued — plus, only while the platform
// would act on a task becoming ready, the accelerator's own event
// horizon and the dispatch candidate's visibility stamp. Every
// candidate at or before now is clamped to now+1: the current cycle's
// actions already ran, so anything still due fires on the next
// evaluated cycle, exactly like the reference loop. Waking too early is
// harmless (the loop re-evaluates and finds nothing to do); the
// candidates are chosen so it can never wake too late. interested is
// the caller's readyInterest() value for this cycle.
//
//picos:hotpath
func (r *runner) nextWake(now uint64, interested bool) (uint64, bool) {
	next, ok := uint64(0), false
	//lint:ignore hotalloc consider never leaves this frame, so escape analysis stack-allocates it; TestWarmRunTraceAllocs holds the zero-alloc line
	consider := func(t uint64) {
		if t <= now {
			t = now + 1
		}
		if !ok || t < next {
			next, ok = t, true
		}
	}
	// Accelerator-internal events never need to wake the loop: while the
	// platform would act on a task becoming ready, runFast drives the
	// accelerator with RunToReady (which surfaces by itself when one
	// appears), and otherwise no platform step reads anything from the
	// accelerator, so RunTo chews through whole bursts of internal
	// events without surfacing. The only accelerator-derived candidate
	// is the current dispatch candidate's visibility stamp.
	if interested {
		if ra, rok := r.p.ReadyAt(); rok {
			if r.cfg.Mode == HWOnly {
				consider(ra)
			} else {
				consider(max(ra, r.busFree))
			}
		}
	}
	if len(r.busyH) > 0 {
		consider(r.busyH[0].Until)
	}
	if d, ok := r.deliveries.Peek(); ok {
		consider(d.at)
	}
	if r.cfg.Mode == FullSystem && r.srcHasNext() && r.masterWindowOpen() && r.windowOpen() {
		// A window-blocked master resumes only when a submission is
		// accepted (run-ahead) or a descriptor retires, and every such
		// cycle — a delivery, a parked retry, a worker finish, a degrade
		// refusal — is already covered by the candidates here.
		consider(r.masterFree)
	}
	if r.cfg.Mode == HWComm && r.windowOpen() && r.srcHasNext() {
		// A refusal this cycle reopened the window after stepFeed ran:
		// the feed acts on the next evaluated cycle.
		consider(now + 1)
	}
	if st, sok := r.pendingNew.Peek(); sok && st.at > now {
		consider(st.at)
	}
	if r.cfg.Mode != HWOnly && r.busFree > now &&
		(r.pendingFin.Len() > 0 || r.pendingNew.Len() > 0 || r.retryQ.Len() > 0 ||
			(interested && r.p.ReadyCount() > 0)) {
		consider(r.busFree)
	}
	if r.flt != nil {
		// A pending failstop and a due retransmission are real events
		// both loops must evaluate at. A failstop is only an event while
		// unaccounted tasks remain: once every task is done, refused or
		// lost there is no in-flight work a kill could touch, and jumping
		// to a trigger cycle beyond the schedule would only starve the
		// watchdog.
		if c, sok := r.flt.NextStop(); sok && r.tasksOutstanding() {
			consider(c)
		}
		if e, eok := r.retryQ.Peek(); eok {
			consider(e.at)
		}
	}
	if f := r.cfg.Picos.Faults; r.backpressured() ||
		(f != nil && f.Degrade > 0 && !r.windowOpen() && r.srcHasNext()) {
		// Parked or unfed tasks wait for new-task queue space, which
		// opens at a GW admission, and a full window may reopen at a
		// degrade refusal — both accelerator-internal events — so every
		// accelerator event becomes a (conservative) wake candidate while
		// the feed waits on one.
		if ne, ok2 := r.p.NextEvent(); ok2 {
			consider(ne)
		}
	}
	return next, ok
}

// stepWorkers retires finished executions: busy workers pop off the
// completion heap in (until, idx) order — exactly the order the
// per-cycle reference retires them — until the head is still running.
//
//picos:hotpath
func (r *runner) stepWorkers(now uint64) {
	for len(r.busyH) > 0 && r.busyH[0].Until <= now {
		until := r.busyH[0].Until
		idx := r.busyH.Pop().Idx
		r.pool.Park(idx)
		r.done++
		r.lastProgress = now
		if r.cfg.Mode == HWOnly {
			r.p.NotifyFinish(r.workers[idx].Handle)
		} else {
			r.pendingFin.Push(r.workers[idx].Handle)
		}
		// The completion retires the descriptor (the accelerator's cleanup
		// needs only the handle already captured above) and feeds the
		// running makespan.
		r.aggMakespan = max(r.aggMakespan, until)
		r.retire(r.workers[idx].ID)
	}
}

// pushDelivery queues a landed-at-`at` link message, coalescing it into
// the tail delivery node when the stamps match and the batch has room.
// Stamps are non-decreasing (busFree never moves backwards), so a
// non-matching tail stamp means a strictly later landing and a fresh
// node keeps the FIFO ordered by at.
//
//picos:hotpath
func (r *runner) pushDelivery(at uint64, msg busMsg) {
	if tail, ok := r.deliveries.Tail(); ok && tail.at == at && int(tail.n) < len(tail.msgs) {
		tail.msgs[tail.n] = msg
		tail.n++
		return
	}
	d := delivery{at: at, n: 1}
	d.msgs[0] = msg
	r.deliveries.Push(d)
}

// stepDeliveries lands in-flight link messages. The FIFO is ordered by
// landing stamp (see the field comment), so landing is popping the
// due prefix; each node lands its whole batch in push order.
//
//picos:hotpath
func (r *runner) stepDeliveries(now uint64) {
	for {
		d, ok := r.deliveries.Peek()
		if !ok || d.at > now {
			return
		}
		r.deliveries.Pop()
		for i := 0; i < int(d.n); i++ {
			r.landMsg(d.msgs[i])
		}
		r.lastProgress = now
	}
}

// landMsg applies one landed link message.
//
//picos:hotpath
func (r *runner) landMsg(msg busMsg) {
	if msg.dup {
		// The duplicate of an axi:dup fault: it paid its bandwidth on
		// the link; the receiver's dedup discards the payload.
		return
	}
	switch msg.kind {
	case busNew:
		if r.parkedNew.Len() > 0 {
			// Keep submission order: earlier rejections go first.
			r.parkedNew.Push(msg.task)
			return
		}
		task := r.taskAt(msg.task)
		err := r.p.Submit(task.ID, task.Deps)
		switch {
		case errors.Is(err, picos.ErrNewQFull):
			// The submission buffer is full: park the descriptor and
			// retry until the queue accepts it. A rejected
			// registration is never dropped — losing it would wedge
			// the run and fail the drain check.
			r.parkedNew.Push(msg.task)
		case errors.Is(err, picos.ErrUnadmittable):
			r.refuse(msg.task)
			if r.cfg.Mode == FullSystem {
				r.createdAhead--
			}
		case err != nil:
			// Traces are validated before the run, so a non-capacity
			// rejection is impossible; if the model ever produces
			// one, surface it through the drain check (submitted
			// counter stays short) rather than dropping silently.
			_ = err
		default:
			if r.cfg.Mode == FullSystem {
				r.createdAhead--
			}
		}
	case busReady:
		r.readyInFlight--
		r.readyBacklog.Push(msg.rt)
	case busFin:
		r.p.NotifyFinish(msg.h)
	}
}

// stepMaster runs the ARM-side Nanos++ creation/submission path: one
// task per grant; the created descriptor becomes available to the link
// at masterFree.
//
//picos:hotpath
func (r *runner) stepMaster(now uint64) {
	if r.cfg.Mode != FullSystem || r.masterFree > now {
		return
	}
	// An exhausted run-ahead window parks the master with the next
	// descriptor ready until a submission is accepted downstream; an
	// exhausted descriptor window until a live task retires.
	if !r.masterWindowOpen() || !r.windowOpen() {
		return
	}
	task, ok := r.srcPeek()
	if !ok {
		return
	}
	cost := task.CreateCost
	if cost == 0 {
		cost = r.cfg.Master.Create
	}
	cost += r.cfg.Master.SubmitCost(len(task.Deps))
	// The master also performs the AXI stream write for its submission.
	cost += r.cfg.Comm.SendNewOcc
	r.masterFree = now + cost
	r.pendingNew.Push(stampedTask{at: r.masterFree, idx: r.srcCommit(task)})
	r.createdAhead++
}

// stepBus arbitrates the AXI link: ready retrievals first (keep workers
// fed), then finished notifications (free accelerator resources), then
// new submissions.
//
//picos:hotpath
func (r *runner) stepBus(now uint64) {
	if r.cfg.Mode == HWOnly || r.busFree > now {
		return
	}
	c := &r.cfg.Comm
	if !r.busSetup {
		if !r.busHasWork(now) {
			return
		}
		// Lazy first-use setup of the stream queues and status registers
		// (the extra ~600 cycles between Table IV's thrTask and L1st).
		r.busSetup = true
		r.busFree = now + c.Setup
		return
	}
	if r.flt != nil {
		// Retransmissions of dropped messages go out ahead of fresh
		// traffic: they are the oldest granted transfers on the link.
		if e, ok := r.retryQ.Peek(); ok && e.at <= now {
			r.retryQ.Pop()
			if e.msg.kind == busNew {
				r.retryNew-- // re-dropped resends re-count in loseOrRetry
			}
			r.resend(now, e)
			return
		}
	}
	if r.readyInterest() {
		if rt, ok := r.p.PopReady(); ok {
			r.readyInFlight++
			r.send(now, c.FetchReadyOcc, busMsg{kind: busReady, rt: rt})
			return
		}
	}
	if h, ok := r.pendingFin.Pop(); ok {
		r.send(now, c.SendFinOcc, busMsg{kind: busFin, h: h})
		return
	}
	if r.flt != nil && r.retryNew > 0 {
		// An earlier submission is still in the retransmission queue:
		// sending a fresh one now would deliver tasks out of program
		// order and corrupt the dependence registration downstream.
		return
	}
	if st, ok := r.pendingNew.Peek(); ok && st.at <= now {
		r.pendingNew.Pop()
		// In Full-system mode the send occupancy was already paid on the
		// master core (coupled resources); the link itself is still held
		// for the transfer duration in both modes.
		r.send(now, c.SendNewOcc, busMsg{kind: busNew, task: st.idx})
	}
}

// send occupies the link for occ cycles and schedules the delivery,
// first giving the fault layer (when armed) its chance to drop, delay
// or duplicate the transfer.
//
//picos:hotpath
func (r *runner) send(now, occ uint64, msg busMsg) {
	if r.flt != nil && r.sendFaulty(now, occ, msg) {
		return
	}
	r.busFree = now + occ
	r.pushDelivery(r.busFree+r.cfg.Comm.Flight, msg)
}

// dispatch hands ready tasks to idle workers: directly from the TS in
// HW-only mode, from the fetched backlog in the comm modes. It moves
// ready tasks into the pool while the pool wants them — one per idle
// worker on the historical plan, every visible one otherwise — then
// pairs workers and tasks under the configured policy.
//
//picos:hotpath
func (r *runner) dispatch(now uint64) {
	for r.pool.Wants() {
		rt, ok := r.popDispatchable()
		if !ok {
			break
		}
		r.pool.Enqueue(rt.ID, r.taskAt(rt.ID).Kind, rt.Handle)
	}
	for {
		w, it, ok := r.pool.Grant()
		if !ok {
			return
		}
		r.startWorkerAt(w, picos.ReadyTask{Handle: it.Payload, ID: it.ID}, now)
	}
}

// popDispatchable yields the next ready task the workers may take: the
// TS directly in HW-only mode, the fetched backlog in the comm modes.
// A fault-armed HW-only run drains the backlog first — it holds tasks
// re-granted from fail-stopped workers, which never exists fault-free.
//
//picos:hotpath
func (r *runner) popDispatchable() (picos.ReadyTask, bool) {
	if r.cfg.Mode == HWOnly {
		if r.flt != nil {
			if rt, ok := r.readyBacklog.Pop(); ok {
				return rt, true
			}
		}
		return r.p.PopReady()
	}
	return r.readyBacklog.Pop()
}

//picos:hotpath
func (r *runner) startWorkerAt(i int, rt picos.ReadyTask, now uint64) {
	dur := r.pool.Scale(i, r.taskAt(rt.ID).Duration)
	if r.flt != nil {
		dur = r.flt.ScaleWorker(i, now, dur)
	}
	r.workers[i] = rt
	r.busyH.Push(sched.Due{Until: now + dur, Idx: i})
	if r.start != nil {
		r.start[rt.ID] = now
		r.finish[rt.ID] = now + dur
		r.order = append(r.order, rt.ID)
	}
	// The clock never rewinds: the first start is the earliest.
	if !r.aggFirstSet {
		r.aggFirst, r.aggFirstSet = now, true
	}
	r.aggLastStart = now
	r.aggStarted++
	r.lastProgress = now
}

// busHasWork reports whether any message is waiting for the link.
func (r *runner) busHasWork(now uint64) bool {
	if r.flt != nil {
		if e, ok := r.retryQ.Peek(); ok && e.at <= now {
			return true
		}
	}
	if r.readyInterest() && r.p.ReadyCount() > 0 {
		return true
	}
	if r.pendingFin.Len() > 0 {
		return true
	}
	if st, ok := r.pendingNew.Peek(); ok && st.at <= now &&
		(r.flt == nil || r.retryNew == 0) {
		return true
	}
	return false
}

// busCanActNow reports whether the link could do useful work this cycle.
func (r *runner) busCanActNow(now uint64) bool {
	if r.cfg.Mode == HWOnly || r.busFree > now {
		return false
	}
	return r.busHasWork(now)
}

// quiescentUntil reports the next cycle anything can happen, when the
// platform is provably idle until then.
//
//picos:hotpath
func (r *runner) quiescentUntil(now uint64) (uint64, bool) {
	if !r.p.Idle() {
		return 0, false
	}
	// An eager plan acts on any visible ready task (HW-only pop, backlog
	// drain into the pool) regardless of idle workers; an on-demand one
	// only when a worker is free to take it.
	if r.pool.Wants() {
		if r.cfg.Mode == HWOnly && r.p.ReadyCount() > 0 {
			return 0, false
		}
		if r.readyBacklog.Len() > 0 {
			return 0, false
		}
	}
	if r.busCanActNow(now) {
		return 0, false
	}
	if r.backpressured() && r.p.NewQRoom() {
		return 0, false
	}
	if r.cfg.Mode == HWComm && r.windowOpen() && r.srcHasNext() {
		// stepFeed will hand the link more work on the next cycle (a
		// refusal can reopen the window after the feed already ran).
		return 0, false
	}
	next := uint64(0)
	//lint:ignore hotalloc consider never leaves this frame, so escape analysis stack-allocates it; TestWarmRunTraceAllocs holds the zero-alloc line
	consider := func(t uint64) {
		if t > now && (next == 0 || t < next) {
			next = t
		}
	}
	if len(r.busyH) > 0 {
		consider(r.busyH[0].Until)
	}
	if d, ok := r.deliveries.Peek(); ok {
		consider(d.at)
	}
	if r.cfg.Mode == FullSystem && r.srcHasNext() && r.masterWindowOpen() && r.windowOpen() {
		consider(r.masterFree)
	}
	if st, ok := r.pendingNew.Peek(); ok {
		consider(st.at)
	}
	if r.busFree > now && (r.pendingFin.Len() > 0 || r.pendingNew.Len() > 0 ||
		r.retryQ.Len() > 0 || (r.p.ReadyCount() > 0 && r.readyInterest())) {
		consider(r.busFree)
	}
	if r.flt != nil {
		// Same candidates as nextWake, same completion gate on the stop.
		if c, sok := r.flt.NextStop(); sok && r.tasksOutstanding() {
			consider(c)
		}
		if e, ok := r.retryQ.Peek(); ok {
			consider(e.at)
		}
	}
	if next == 0 {
		return 0, false
	}
	return next, true
}

// result assembles the run's Result. A run that recorded its schedule
// takes the probes from the arrays, which also hold the planned finish
// of tasks still running at a timeout and drop the starts a failstop
// aborted; a streamed run takes them from the running counters and its
// Baseline from the duration sum plus the source's serial-work fields —
// the same values, without the O(tasks) state.
func (r *runner) result() *Result {
	res := &Result{
		Result: sim.Result{
			Workers: r.cfg.Workers,
			Start:   r.start,
			Finish:  r.finish,
			Order:   r.order,
			// Fault and refusal accounting; all stay zero on a fault-free
			// run under the default admission policy.
			LostTasks:      r.lost,
			RecoveredTasks: r.recovered,
			RefusedTasks:   r.refused,
			RefusedIDs:     r.refusedIDs,
		},
		Mode:  r.cfg.Mode,
		Busy:  r.p.Busy(),
		stats: *r.p.Stats(),
	}
	res.Stats = &res.stats
	if r.start != nil {
		res.Baseline = r.mat.Baseline()
		for _, f := range r.finish {
			res.Makespan = max(res.Makespan, f)
		}
		// Order is start order and the clock never rewinds, so its ends
		// are the first and the last start.
		if n := len(r.order); n > 0 {
			res.FirstStart = r.start[r.order[0]]
			if n > 1 {
				res.ThrTask = float64(r.start[r.order[n-1]]-res.FirstStart) / float64(n-1)
			}
		}
	} else {
		res.Makespan, res.FirstStart = r.aggMakespan, r.aggFirst
		if res.Baseline = r.src.RefSeqCycles(); res.Baseline == 0 {
			res.Baseline = r.src.SerialCycles() + r.aggDur
		}
		if r.aggStarted > 1 {
			res.ThrTask = float64(r.aggLastStart-r.aggFirst) / float64(r.aggStarted-1)
		}
	}
	if res.Makespan > 0 {
		res.Speedup = float64(res.Baseline) / float64(res.Makespan)
	}
	if r.flt != nil && r.flt.Fired {
		res.Faulted = true
	}
	if f := r.cfg.Picos.Faults; f != nil {
		if f.Fired {
			res.Faulted = true
		}
		res.RefusedTasks += len(f.RefusedIDs)
	}
	return res
}
