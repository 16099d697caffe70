package sched

// Pool is the shared ready-queue + idle-worker state machine. Engines
// push ready tasks in (Enqueue), park workers that finished (Park), and
// repeatedly ask for deterministic (worker, task) pairings (Grant).
//
// The pool also decides how eagerly an engine hands it ready tasks
// (Wants). The historical plan — uniform classes, FIFO, no stealing —
// takes tasks on demand, one per idle worker, so a task the pool does
// not yet need stays in the engine's upstream queue. Every other plan
// takes each ready task as soon as it is visible, because its policy
// chooses among the whole candidate set. The two rules give different
// schedules when the upstream queue is not itself FIFO.
//
// Determinism contract, locked by regression tests:
//
//   - workers are considered in ascending global index order, so with
//     FIFO and a single class the pairing is exactly the historical
//     "oldest ready task to the lowest-index idle worker";
//   - with Steal on, a worker drains its own class queue first, then
//     visits victim classes in ascending class order, skipping its own;
//   - with Steal off there is a single shared queue;
//   - Locality is work-conserving: a worker passes over a task whose
//     preferred class (the class that last ran the task's kind) has an
//     idle worker, and that worker is guaranteed to be paired later in
//     the same grant round.
//
// The payload type parameter carries whatever the engine needs to start
// the task (the Picos ready-queue handle for hil, nothing for the
// software engines).
type Pool[P any] struct {
	classes Classes
	policy  Policy
	steal   bool
	prio    []uint64 // by task id; set for Priority
	el      [][]bool // per class; empty row = every kind
	classOf []uint8  // worker -> class
	// onDemand: take one ready task per idle worker (see Wants).
	onDemand bool

	idle      IdleHeap
	idleByCls []int // idle worker count per class

	queues  [][]Item[P] // per class when stealing, queues[0] otherwise
	qlen    int
	seq     uint64
	lastCls []int16 // kind id -> class that last ran it, -1 none

	scratch []int // Grant/wake pop-and-stash buffer
}

// Item is one ready task waiting in the pool.
type Item[P any] struct {
	ID      uint32
	Kind    uint16
	Payload P
	seq     uint64
}

// Reset configures the pool for a run. classes must be non-empty
// (normalize with Single(n) for the homogeneous case); kinds is the
// trace's kind table; prio is the per-task priority (required for the
// Priority policy, ignored otherwise — a nil prio under Priority returns
// ErrNoBottomLevels). All internal storage is reused across warm Resets.
func (p *Pool[P]) Reset(classes Classes, policy Policy, steal bool, kinds []string, prio []uint64) error {
	if policy == Priority && prio == nil {
		return ErrNoBottomLevels
	}
	p.classes = classes
	p.policy = policy
	p.steal = steal
	p.prio = prio
	p.el = classes.eligibility(p.el, kinds)
	p.onDemand = classes.Uniform() && policy == FIFO && !steal

	nw := classes.Workers()
	if cap(p.classOf) < nw {
		p.classOf = make([]uint8, nw)
	}
	p.classOf = p.classOf[:nw]
	w := 0
	for ci, c := range classes {
		for k := 0; k < c.Count; k++ {
			p.classOf[w] = uint8(ci)
			w++
		}
	}

	p.idle = p.idle[:0]
	if cap(p.idleByCls) < len(classes) {
		p.idleByCls = make([]int, len(classes))
	}
	p.idleByCls = p.idleByCls[:len(classes)]
	for i := range p.idleByCls {
		p.idleByCls[i] = 0
	}

	nq := 1
	if steal {
		nq = len(classes)
	}
	if cap(p.queues) < nq {
		p.queues = make([][]Item[P], nq)
	}
	p.queues = p.queues[:nq]
	for i := range p.queues {
		p.queues[i] = p.queues[i][:0]
	}
	p.qlen = 0
	p.seq = 0

	nk := len(kinds) + 1
	if cap(p.lastCls) < nk {
		p.lastCls = make([]int16, nk)
	}
	p.lastCls = p.lastCls[:nk]
	for i := range p.lastCls {
		p.lastCls[i] = -1
	}
	return nil
}

// Workers returns the total worker count.
func (p *Pool[P]) Workers() int { return len(p.classOf) }

// ClassOf returns the class index of worker w.
func (p *Pool[P]) ClassOf(w int) int { return int(p.classOf[w]) }

// Scale returns dur scaled by worker w's class multiplier.
func (p *Pool[P]) Scale(w int, dur uint64) uint64 {
	return p.classes.Scale(int(p.classOf[w]), dur)
}

// Len returns the number of ready tasks waiting in the pool.
func (p *Pool[P]) Len() int { return p.qlen }

// Idle returns the number of idle (parked) workers.
func (p *Pool[P]) Idle() int { return len(p.idle) }

// Wants reports whether the pool takes another ready task now: always
// for an eager plan, only while idle workers outnumber the queued tasks
// for an on-demand one.
func (p *Pool[P]) Wants() bool { return !p.onDemand || len(p.idle) > p.qlen }

// Park marks worker w idle.
func (p *Pool[P]) Park(w int) {
	p.idle.Push(w)
	p.idleByCls[p.classOf[w]]++
}

// eligible reports whether class ci may run kind k.
func (p *Pool[P]) eligible(ci int, k uint16) bool {
	row := p.el[ci]
	return len(row) == 0 || row[k]
}

// homeClass picks the queue a new task parks in when stealing is on:
// the class that last ran its kind under Locality (when eligible),
// otherwise the first eligible class in declaration order.
func (p *Pool[P]) homeClass(k uint16) int {
	if p.policy == Locality {
		if lc := p.lastCls[k]; lc >= 0 && p.eligible(int(lc), k) {
			return int(lc)
		}
	}
	for ci := range p.classes {
		if p.eligible(ci, k) {
			return ci
		}
	}
	return 0 // unreachable after CheckCoverage
}

// Enqueue adds a ready task to the pool.
func (p *Pool[P]) Enqueue(id uint32, kind uint16, payload P) {
	q := 0
	if p.steal {
		q = p.homeClass(kind)
	}
	p.seq++
	p.queues[q] = append(p.queues[q], Item[P]{ID: id, Kind: kind, Payload: payload, seq: p.seq})
	p.qlen++
}

// pick returns the index of the task in q that worker class ci should
// take under the active policy, or -1. pass2 relaxes Locality's
// preferred-class test (see takeFor).
func (p *Pool[P]) pick(q []Item[P], ci int, pass2 bool) int {
	switch p.policy {
	case FIFO:
		for i := range q {
			if p.eligible(ci, q[i].Kind) {
				return i
			}
		}
	case LIFO:
		for i := len(q) - 1; i >= 0; i-- {
			if p.eligible(ci, q[i].Kind) {
				return i
			}
		}
	case Priority:
		best, bi := uint64(0), -1
		for i := range q {
			if !p.eligible(ci, q[i].Kind) {
				continue
			}
			pr := p.prio[q[i].ID]
			if bi < 0 || pr > best {
				best, bi = pr, i
			}
		}
		return bi
	case Locality:
		for i := range q {
			if !p.eligible(ci, q[i].Kind) {
				continue
			}
			lc := p.lastCls[q[i].Kind]
			if lc < 0 || int(lc) == ci {
				return i
			}
			// The task prefers another class; in pass 2 take it anyway
			// unless that class has an idle worker which will be paired
			// with it later in this same grant round.
			if pass2 && p.idleByCls[lc] == 0 {
				return i
			}
		}
	}
	return -1
}

// remove deletes index i from queue q, preserving order.
func (p *Pool[P]) remove(q int, i int) Item[P] {
	s := p.queues[q]
	it := s[i]
	copy(s[i:], s[i+1:])
	p.queues[q] = s[:len(s)-1]
	p.qlen--
	return it
}

// takeFor removes and returns the task worker w should run, if any.
func (p *Pool[P]) takeFor(w int) (Item[P], bool) {
	ci := int(p.classOf[w])
	passes := 1
	if p.policy == Locality {
		passes = 2
	}
	for pass := 0; pass < passes; pass++ {
		if !p.steal {
			if i := p.pick(p.queues[0], ci, pass == 1); i >= 0 {
				return p.remove(0, i), true
			}
			continue
		}
		// Own class queue first, then victims in ascending class order.
		if i := p.pick(p.queues[ci], ci, pass == 1); i >= 0 {
			return p.remove(ci, i), true
		}
		for v := range p.queues {
			if v == ci {
				continue
			}
			if i := p.pick(p.queues[v], ci, pass == 1); i >= 0 {
				return p.remove(v, i), true
			}
		}
	}
	var zero Item[P]
	return zero, false
}

// Grant pairs the lowest-index idle worker that can take a ready task
// with that task, removing both from the pool and recording the class
// in the task kind's locality history. Call it in a loop until it
// returns false.
func (p *Pool[P]) Grant() (w int, it Item[P], ok bool) {
	if p.qlen == 0 {
		return w, it, false
	}
	p.scratch = p.scratch[:0]
	for len(p.idle) > 0 {
		cand := p.idle.Pop()
		if item, found := p.takeFor(cand); found {
			w, it, ok = cand, item, true
			p.idleByCls[p.classOf[cand]]--
			p.lastCls[item.Kind] = int16(p.classOf[cand])
			break
		}
		p.scratch = append(p.scratch, cand)
	}
	for _, s := range p.scratch {
		p.idle.Push(s)
	}
	return w, it, ok
}

// Evict removes worker w from the idle freelist, reporting whether it
// was parked. An evicted worker is simply never granted again — the
// fault layer uses this to fail-stop a worker without leaving a dead
// index in the pool's dispatch structures. Eviction does not shrink
// Workers(): class bookkeeping and indices of the survivors are
// untouched.
func (p *Pool[P]) Evict(w int) bool {
	_, ok := p.wakeWhere(func(cand int) bool { return cand == w })
	return ok
}

// TakeFor removes and returns the task worker w (which must not be
// parked) should run under the active policy, recording locality
// history. Event-driven engines use it when a specific worker asks for
// work; Grant is the batch form.
func (p *Pool[P]) TakeFor(w int) (Item[P], bool) {
	it, ok := p.takeFor(w)
	if ok {
		p.lastCls[it.Kind] = int16(p.classOf[w])
	}
	return it, ok
}

// CanTake reports whether worker w (parked or not) could take a ready
// task right now, without removing anything.
func (p *Pool[P]) CanTake(w int) bool {
	ci := int(p.classOf[w])
	passes := 1
	if p.policy == Locality {
		passes = 2
	}
	for pass := 0; pass < passes; pass++ {
		if !p.steal {
			if p.pick(p.queues[0], ci, pass == 1) >= 0 {
				return true
			}
			continue
		}
		for v := range p.queues {
			if p.pick(p.queues[v], ci, pass == 1) >= 0 {
				return true
			}
		}
	}
	return false
}

// WakeEligible removes and returns the lowest-index idle worker
// eligible for kind k, preferring the kind's locality class under the
// Locality policy. Event-driven engines use it to wake a worker when a
// task of kind k becomes ready.
func (p *Pool[P]) WakeEligible(k uint16) (int, bool) {
	if p.policy == Locality {
		if lc := p.lastCls[k]; lc >= 0 && p.idleByCls[lc] > 0 && p.eligible(int(lc), k) {
			return p.wakeWhere(func(w int) bool { return p.classOf[w] == uint8(lc) })
		}
	}
	return p.wakeWhere(func(w int) bool { return p.eligible(int(p.classOf[w]), k) })
}

// WakeAny removes and returns the lowest-index idle worker that can
// take some queued task right now.
func (p *Pool[P]) WakeAny() (int, bool) {
	return p.wakeWhere(p.CanTake)
}

// wakeWhere pops the lowest-index idle worker satisfying keep.
func (p *Pool[P]) wakeWhere(keep func(int) bool) (int, bool) {
	p.scratch = p.scratch[:0]
	w, ok := 0, false
	for len(p.idle) > 0 {
		cand := p.idle.Pop()
		if keep(cand) {
			w, ok = cand, true
			p.idleByCls[p.classOf[cand]]--
			break
		}
		p.scratch = append(p.scratch, cand)
	}
	for _, s := range p.scratch {
		p.idle.Push(s)
	}
	return w, ok
}
