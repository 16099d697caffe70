package picos

import "repro/internal/queue"

// SchedPolicy selects how the Task Scheduler orders ready tasks. The
// prototype uses a FIFO queue by default; Figure 9 evaluates a LIFO as a
// way out of the Lu wake-order corner case.
type SchedPolicy uint8

const (
	// SchedFIFO dispatches ready tasks in arrival order (the default).
	SchedFIFO SchedPolicy = iota
	// SchedLIFO dispatches the most recently readied task first.
	SchedLIFO
)

// String names the policy.
func (s SchedPolicy) String() string {
	if s == SchedLIFO {
		return "LIFO"
	}
	return "FIFO"
}

// tsUnit is the Task Scheduler: the second interface between Picos and
// the cores. It stores ready tasks and hands them to idle workers.
type tsUnit struct {
	p      *Picos
	timing *Timing
	policy SchedPolicy

	inQ regFIFO[readyTaskPkt]

	fifo queue.FIFO[stamped[ReadyTask]]
	lifo queue.Stack[stamped[ReadyTask]]

	busyUntil uint64
	busy      uint64
	hid       int32 // horizon key slot
}

func newTS(p *Picos) *tsUnit {
	return &tsUnit{p: p, timing: &p.cfg.Timing, policy: p.cfg.Policy}
}

// reset scrubs the unit back to its just-built state, re-reading the
// scheduling policy from the (possibly new) config.
func (u *tsUnit) reset() {
	u.policy = u.p.cfg.Policy
	u.inQ.reset()
	u.fifo.Reset()
	u.lifo.Reset()
	u.busyUntil, u.busy = 0, 0
}

func (u *tsUnit) step(now uint64) {
	for u.busyUntil <= now {
		pkt, ok := u.inQ.pop(now)
		if !ok {
			return
		}
		done := now + u.timing.TSDispatch
		u.busyUntil = done
		u.busy += u.timing.TSDispatch
		u.p.noteBusy(done)
		item := stamped[ReadyTask]{at: done + u.timing.TSPipe, v: ReadyTask{Handle: pkt.task, ID: pkt.id}}
		if u.policy == SchedLIFO {
			u.lifo.Push(item)
		} else {
			u.fifo.Push(item)
		}
	}
}

// popReady hands one dispatchable task to a worker, honouring the
// scheduling policy.
func (u *tsUnit) popReady(now uint64) (ReadyTask, bool) {
	if u.policy == SchedLIFO {
		if it, ok := u.lifo.Peek(); ok && it.at <= now {
			u.lifo.Pop()
			return it.v, true
		}
		return ReadyTask{}, false
	}
	if it, ok := u.fifo.Peek(); ok && it.at <= now {
		u.fifo.Pop()
		return it.v, true
	}
	return ReadyTask{}, false
}

// readyLen returns the number of tasks in the ready store.
func (u *tsUnit) readyLen() int { return u.fifo.Len() + u.lifo.Len() }

// nextEvent returns the earliest cycle at which the TS can queue its
// next ready task, or noEvent.
func (u *tsUnit) nextEvent() uint64 { return max(u.inQ.headAt(), u.busyUntil) }

// nextReadyAt returns the cycle the current dispatch candidate becomes
// poppable: the head of the FIFO or the top of the LIFO, exactly the
// element popReady inspects. Items below the LIFO top do not gate
// dispatch even if their stamps are older, mirroring popReady.
func (u *tsUnit) nextReadyAt() (uint64, bool) {
	if u.policy == SchedLIFO {
		if it, ok := u.lifo.Peek(); ok {
			return it.at, true
		}
		return 0, false
	}
	if it, ok := u.fifo.Peek(); ok {
		return it.at, true
	}
	return 0, false
}
