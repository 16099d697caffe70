// Package nanos models the software-only Nanos++ runtime the paper
// compares against: a master thread that creates and submits every task
// (paying per-task and per-dependence analysis costs inside a contended
// global runtime lock) and worker threads that pop ready tasks and
// release dependences under the same lock. The lock-hold times grow with
// the number of active threads (cache-line contention), which produces
// the two signature behaviours of Figures 1 and 11: scaling saturates
// around 8 workers, and fine-grained tasks collapse once per-task
// overhead rivals task duration.
//
// One discrete-event loop serves both entry points. It feeds from a
// trace.Source: RunSource streams under a bounded descriptor window, and
// Run treats a materialized trace as a stream whose window never closes.
package nanos

import (
	"fmt"
	"sync"

	"repro/internal/sched"
	"repro/internal/table"
	"repro/internal/taskgraph"
	"repro/internal/trace"
)

// Timing is the software runtime cost model, in cycles. Values are
// calibrated against Figure 10 of the paper (task creation roughly
// constant; submission growing with dependence count and thread count).
type Timing struct {
	Create        uint64  // task creation, outside the lock
	SubmitBase    uint64  // submission + insertion, inside the lock
	SubmitPerDep  uint64  // dependence analysis per dependence, in-lock
	PopHold       uint64  // ready-queue pop, in-lock
	ReleaseBase   uint64  // finish bookkeeping, in-lock
	ReleasePerDep uint64  // dependence release per dependence, in-lock
	Contention    float64 // per-extra-thread inflation of in-lock time
}

// DefaultTiming returns the calibrated model.
func DefaultTiming() Timing {
	return Timing{
		Create:        1800,
		SubmitBase:    700,
		SubmitPerDep:  400,
		PopHold:       300,
		ReleaseBase:   500,
		ReleasePerDep: 350,
		Contention:    0.18,
	}
}

// inflate applies the contention factor for a given thread count (master
// + workers all hammer the same runtime structures).
func (t *Timing) inflate(hold uint64, threads int) uint64 {
	if threads <= 1 {
		return hold
	}
	return uint64(float64(hold) * (1 + t.Contention*float64(threads-1)))
}

// CreationOverhead returns the Figure 10 "Creation" series: per-task
// creation cost at a given thread count.
func (t *Timing) CreationOverhead(threads int) uint64 { return t.Create }

// SubmissionOverhead returns the Figure 10 "x DEPs" series: per-task
// submission cost for a task with nDeps dependences at a thread count.
func (t *Timing) SubmissionOverhead(nDeps, threads int) uint64 {
	return t.inflate(t.SubmitBase+uint64(nDeps)*t.SubmitPerDep, threads)
}

// Config configures a software-only run.
type Config struct {
	// Workers is the homogeneous worker count. Mutually exclusive with
	// Classes: when Classes is non-empty the worker count is the sum of
	// the class counts and Workers must be zero.
	Workers int
	// Classes declares heterogeneous worker classes (per-class
	// service-time multipliers, optional task-kind affinity). Empty
	// means Workers identical baseline cores. Lock-hold costs are not
	// scaled — the runtime lock is contended by every thread equally;
	// only task execution time is class-scaled.
	Classes sched.Classes
	// Sched is the ready-task grant policy (sched.FIFO preserves the
	// historical pop-in-ready-order semantics).
	Sched sched.Policy
	// Steal enables per-class ready queues with deterministic
	// ascending-class victim order.
	Steal    bool
	Timing   Timing
	Watchdog uint64 // safety bound on simulated cycles (0: 1e12)
	// Window bounds RunSource's descriptor window: the maximum number of
	// created-but-unfinished tasks kept live at once, 0 meaning
	// unbounded. Run always runs unbounded and ignores it.
	Window int
}

// Result is the outcome of a software-only run.
type Result struct {
	Workers  int
	Makespan uint64
	Baseline uint64
	Speedup  float64
	// Start/Finish are the per-task schedule, recorded by Run only: a
	// streamed RunSource leaves them nil (they would be O(tasks)).
	Start  []uint64
	Finish []uint64
	// LockBusy is the total cycles the runtime lock was held — the
	// contention diagnostic behind the 8-worker knee.
	LockBusy uint64
	// FirstStart/ThrTask are the Table IV latency/throughput probes,
	// stamped by both entry points: the cycle the first task started and
	// the marginal cycles per additional task start.
	FirstStart uint64
	ThrTask    float64
}

// normalize checks the worker setup, fills the defaults and returns the
// worker classes (one baseline class when none is declared).
func (cfg *Config) normalize() (sched.Classes, error) {
	if len(cfg.Classes) > 0 {
		if cfg.Workers != 0 {
			return nil, fmt.Errorf("nanos: both Workers (%d) and Classes (%q) set", cfg.Workers, cfg.Classes.String())
		}
		if err := cfg.Classes.Validate(); err != nil {
			return nil, err
		}
		cfg.Workers = cfg.Classes.Workers()
	}
	if cfg.Workers <= 0 {
		return nil, fmt.Errorf("nanos: need at least 1 worker, got %d", cfg.Workers)
	}
	if cfg.Timing == (Timing{}) {
		cfg.Timing = DefaultTiming()
	}
	if cfg.Watchdog == 0 {
		cfg.Watchdog = 1e12
	}
	if len(cfg.Classes) == 0 {
		return sched.Single(cfg.Workers), nil
	}
	return cfg.Classes, nil
}

// Run simulates the software-only runtime on a materialized trace and
// records its Start/Finish schedule.
func Run(tr *trace.Trace, cfg Config) (*Result, error) {
	classes, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("nanos: %w", err)
	}
	present := make([]bool, len(tr.Kinds)+1)
	for i := range tr.Tasks {
		present[tr.Tasks[i].Kind] = true
	}
	if err := classes.CheckCoverage(tr.Kinds, present); err != nil {
		return nil, err
	}
	var prio []uint64
	if cfg.Sched == sched.Priority {
		prio = taskgraph.Build(tr).BottomLevels()
	}
	n := len(tr.Tasks)
	res := &Result{Start: make([]uint64, n), Finish: make([]uint64, n)}
	cfg.Window = 0
	return simulate(trace.FromTrace(tr), cfg, classes, prio, res, true)
}

// RunSource simulates the software-only runtime on a streaming source
// under cfg.Window. It records no Start/Finish schedule; the Result
// carries the aggregate FirstStart/ThrTask probes. The priority policy
// needs whole-graph bottom levels and is refused with
// sched.ErrNoBottomLevels.
func RunSource(src trace.Source, cfg Config) (*Result, error) {
	classes, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	if err := src.Rewind(); err != nil {
		return nil, fmt.Errorf("nanos: %w", err)
	}
	// A stream's kind usage is unknown up front: the class list must
	// cover every declared kind.
	if err := classes.CheckCoverage(src.Kinds(), nil); err != nil {
		return nil, err
	}
	return simulate(src, cfg, classes, nil, &Result{}, false)
}

// event kinds for the discrete-event simulation.
type evKind uint8

const (
	evMasterCreate evKind = iota // master finished creating, wants the lock
	evWorkerIdle                 // worker wants to pop a ready task
	evWorkerDone                 // worker finished executing a task
)

type event struct {
	at   uint64
	seq  uint64 // FIFO tie-break
	kind evKind
	who  int   // worker index
	task int32 // evMasterCreate, evWorkerDone
}

// evHeap is a min-heap of events on (at, seq). A typed heap rather than
// container/heap, which would box every pushed event into an interface.
type evHeap []event

func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

func (h *evHeap) push(e event) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s[i].before(&s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *evHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	i := 0
	for {
		least := 2*i + 1
		if least >= n {
			break
		}
		if right := least + 1; right < n && s[right].before(&s[least]) {
			least = right
		}
		if !s[least].before(&s[i]) {
			break
		}
		s[i], s[least] = s[least], s[i]
		i = least
	}
	return top
}

// nodeState is the bookkeeping of one live (created, unfinished) task.
type nodeState struct {
	remaining int32   // live predecessors not yet finished
	succ      []int32 // live successors created so far
	ndeps     int     // len(Deps), for the release cost
	dur       uint64
	kind      uint16
}

// loop is the working state of one run, pooled across runs so warm
// sweeps re-simulate without reallocating the ready pool, the dependence
// analysis, the live set or the event heap.
type loop struct {
	pool   sched.Pool[struct{}] // ready tasks + parked workers
	inc    *taskgraph.Incremental
	live   table.Map[*nodeState] // task ID -> node of each live task
	free   []*nodeState          // retired nodes, reused with their succ capacity
	events evHeap
}

var loops = sync.Pool{New: func() any {
	return &loop{inc: taskgraph.NewIncremental()}
}}

// simulate runs the discrete-event loop over a rewound source. The live
// set holds one node per created-but-unfinished task, in a table keyed
// by task ID whose capacity follows the number of live tasks: the
// master adds a node when its creation event fires and the worker-done
// release deletes it, so under a positive cfg.Window at most that many
// nodes exist at once and an arbitrarily long stream replays in
// O(window) heap (plus the per-address dependence state of
// taskgraph.Incremental). When the window is full the master parks, and
// the next release re-arms the creation chain.
//
// Only predecessors still live gate a new task; a finished one already
// released its constraint. res arrives with its Start/Finish arrays
// allocated when the schedule is to be recorded. Descriptors are
// validated as they arrive unless validated says the whole source
// already was.
func simulate(src trace.Source, cfg Config, classes sched.Classes, prio []uint64, res *Result, validated bool) (*Result, error) {
	l := loops.Get().(*loop)
	defer func() {
		// Hand the (possibly grown) state back emptied, error paths
		// included.
		l.inc.Reset()
		l.live.Reset()
		l.events = l.events[:0]
		loops.Put(l)
	}()
	tm := &cfg.Timing
	threads := cfg.Workers + 1 // master + workers
	kinds := src.Kinds()
	res.Workers = cfg.Workers
	res.Baseline = src.RefSeqCycles()

	pool := &l.pool
	if err := pool.Reset(classes, cfg.Sched, cfg.Steal, kinds, prio); err != nil {
		return nil, fmt.Errorf("nanos: %w", err)
	}
	live := &l.live

	var (
		seq      uint64
		lockFree uint64
		fetched  int // tasks pulled off the source so far
		finished int
		srcDone  bool

		// One-descriptor lookahead: the next task is pulled when its
		// creation event is scheduled (its CreateCost sets the event
		// time) and enters the live set when that event fires.
		pending   trace.Task
		pendingOK bool
		parked    bool // master paused on a full window

		aggDur    uint64 // Σ durations, for the SerialCycles fallback
		first     uint64
		lastStart uint64
		started   int
	)

	push := func(at uint64, kind evKind, who int, task int32) {
		seq++
		l.events.push(event{at: at, seq: seq, kind: kind, who: who, task: task})
	}
	// acquireLock serializes an in-lock section of base duration `hold`
	// (already contention-inflated by the caller) starting no earlier
	// than `at`; returns the section's end time.
	acquireLock := func(at, hold uint64) uint64 {
		if lockFree > at {
			at = lockFree
		}
		lockFree = at + hold
		res.LockBusy += hold
		return lockFree
	}
	// armCreate pulls the next descriptor and schedules its creation
	// event, provided the source has one, the window has room and no
	// pull is already in flight.
	armCreate := func(at uint64) error {
		if pendingOK || srcDone || (cfg.Window > 0 && live.Len() >= cfg.Window) {
			parked = !pendingOK && !srcDone
			return nil
		}
		t, ok := src.Next()
		if !ok {
			srcDone = true
			if err := trace.SourceErr(src); err != nil {
				return fmt.Errorf("nanos: %w", err)
			}
			return nil
		}
		if !validated {
			if err := trace.ValidateTask(&t, fetched, len(kinds)); err != nil {
				return fmt.Errorf("nanos: %w", err)
			}
		}
		pending, pendingOK = t, true
		parked = false
		c := t.CreateCost
		if c == 0 {
			c = tm.Create
		}
		push(at+c, evMasterCreate, -1, int32(t.ID))
		return nil
	}
	// markReady queues a runnable task and wakes an idle worker eligible
	// for its kind, if any is parked.
	markReady := func(t int32, kind uint16, at uint64) {
		pool.Enqueue(uint32(t), kind, struct{}{})
		if w, ok := pool.WakeEligible(kind); ok {
			push(at, evWorkerIdle, w, -1)
		}
	}

	// The master starts creating the first task at cycle 0; workers park
	// idle.
	if err := armCreate(0); err != nil {
		return nil, err
	}
	for w := 0; w < cfg.Workers; w++ {
		pool.Park(w)
	}

	for len(l.events) > 0 {
		if horizon := l.events[0].at; horizon > cfg.Watchdog {
			return nil, fmt.Errorf("nanos: watchdog at cycle %d (%d finished, %d live)", horizon, finished, live.Len())
		}
		ev := l.events.pop()
		switch ev.kind {
		case evMasterCreate:
			t := ev.task
			task := pending
			pendingOK = false
			fetched++
			aggDur += task.Duration
			nd := l.node()
			nd.ndeps, nd.dur, nd.kind = len(task.Deps), task.Duration, task.Kind
			for _, p := range l.inc.Preds(t, task.Deps) {
				if pn, alive := live.Get(uint64(p)); alive {
					pn.succ = append(pn.succ, t)
					nd.remaining++
				}
			}
			live.Put(uint64(t), nd)
			hold := tm.inflate(tm.SubmitBase+uint64(nd.ndeps)*tm.SubmitPerDep, threads)
			end := acquireLock(ev.at, hold)
			if nd.remaining == 0 {
				markReady(t, nd.kind, end)
			}
			if err := armCreate(end); err != nil {
				return nil, err
			}
		case evWorkerIdle:
			if !pool.CanTake(ev.who) {
				// Spurious wake-up (or nothing this worker may run): park
				// again.
				pool.Park(ev.who)
				continue
			}
			hold := tm.inflate(tm.PopHold, threads)
			end := acquireLock(ev.at, hold)
			it, _ := pool.TakeFor(ev.who)
			t := int32(it.ID)
			if started == 0 || end < first {
				first = end
			}
			lastStart = max(lastStart, end)
			started++
			nd, _ := live.Get(uint64(t))
			fin := end + pool.Scale(ev.who, nd.dur)
			if res.Start != nil {
				res.Start[t], res.Finish[t] = end, fin
			}
			push(fin, evWorkerDone, ev.who, t)
			// If more work remains visible, wake another idle worker that
			// can take it.
			if pool.Len() > 0 {
				if w, ok := pool.WakeAny(); ok {
					push(end, evWorkerIdle, w, -1)
				}
			}
		case evWorkerDone:
			t := ev.task
			nd, _ := live.Get(uint64(t))
			hold := tm.inflate(tm.ReleaseBase+uint64(nd.ndeps)*tm.ReleasePerDep, threads)
			end := acquireLock(ev.at, hold)
			finished++
			res.Makespan = max(res.Makespan, ev.at)
			for _, s := range nd.succ {
				sn, _ := live.Get(uint64(s))
				sn.remaining--
				if sn.remaining == 0 {
					markReady(s, sn.kind, end)
				}
			}
			live.Delete(uint64(t)) // retire: the window slot reopens
			l.free = append(l.free, nd)
			if parked {
				if err := armCreate(end); err != nil {
					return nil, err
				}
			}
			// This worker looks for more work immediately.
			push(end, evWorkerIdle, ev.who, -1)
		}
	}

	if live.Len() > 0 || pendingOK || !srcDone {
		return nil, fmt.Errorf("nanos: stalled with %d live tasks after %d finished (scheduler wedge)", live.Len(), finished)
	}
	if res.Baseline == 0 {
		res.Baseline = src.SerialCycles() + aggDur
	}
	if res.Makespan > 0 {
		res.Speedup = float64(res.Baseline) / float64(res.Makespan)
	}
	res.FirstStart = first
	if started > 1 {
		res.ThrTask = float64(lastStart-first) / float64(started-1)
	}
	return res, nil
}

// node returns a zeroed live-set node, reusing a retired one (and its
// succ capacity) when available.
func (l *loop) node() *nodeState {
	k := len(l.free)
	if k == 0 {
		return new(nodeState)
	}
	nd := l.free[k-1]
	l.free = l.free[:k-1]
	*nd = nodeState{succ: nd.succ[:0]}
	return nd
}
