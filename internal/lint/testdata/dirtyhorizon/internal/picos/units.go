// Package picos is a miniature of the real accelerator package: units
// with horizon key slots, FIFOs wired to those keys, busy timers and a
// routed input, for exercising the dirtyhorizon analyzer.
package picos

// queue is a raw container: pushing into it moves no key.
type queue struct{ items []int }

func (q *queue) Push(v int) { q.items = append(q.items, v) }

// fifo is a wired FIFO: its push lowers the owner's key.
type fifo struct {
	q    queue
	key  *uint64
	gate *uint64
}

// push pushes into the inner queue from the FIFO's own method: clean.
func (f *fifo) push(v int, at uint64) {
	if len(f.q.items) == 0 {
		lower(f.key, max(at, *f.gate))
	}
	f.q.Push(v)
}

func (f *fifo) headAt() uint64 {
	if len(f.q.items) == 0 {
		return ^uint64(0)
	}
	return uint64(f.q.items[0])
}

// lower is the one function that writes through a key pointer.
func lower(key *uint64, at uint64) { *key = min(*key, at) }

// unit is a horizon-managed unit: it has an hid key slot.
type unit struct {
	hid       int32
	inQ       fifo
	ready     queue // an output store: nextEvent never reads it
	busyUntil uint64
	blocked   bool
	retry     bool // a step signal, not a gating field
	peer      *unit
	p         *core
}

func (u *unit) nextEvent() uint64 {
	if u.blocked {
		return ^uint64(0)
	}
	return max(u.inQ.headAt(), u.busyUntil)
}

// step is clean: its gating writes happen on the receiver, directly or
// in consume, which step reaches.
func (u *unit) step(now uint64) {
	u.blocked = false
	u.consume(now)
	u.ready.Push(int(now)) // not an input: clean
	u.handOff(now)
}

func (u *unit) consume(now uint64) { u.busyUntil = now + 5 }

// reset writes gating fields: clean, rebuildHorizon follows it.
func (u *unit) reset() {
	u.busyUntil = 0
	u.blocked = false
}

// poll is a unit method no step or reset reaches.
func (u *unit) poll(now uint64) {
	u.busyUntil = now // want `poll writes u\.busyUntil outside unit's step and reset`
}

// handOff is reached from step, but writes another unit's timer.
func (u *unit) handOff(now uint64) {
	u.peer.busyUntil = now // want `handOff writes u\.peer\.busyUntil outside unit's step and reset`
}

// returnCredit is called from the router's step, not this unit's: it
// may raise retry, but no gating field.
func (u *unit) returnCredit() {
	u.retry = true
	u.blocked = false // want `returnCredit writes u\.blocked outside unit's step and reset`
}

// router owns an input that is not a wired FIFO.
type router struct {
	hid int32
	in  queue
	p   *core
}

func (a *router) nextEvent() uint64 {
	if len(a.in.items) == 0 {
		return ^uint64(0)
	}
	return uint64(a.in.items[0])
}

func (a *router) step(now uint64) {
	a.in.items = a.in.items[:0]
	a.p.u.returnCredit()
}

// route pushes into the input and lowers the key: clean.
func (a *router) route(m int, at uint64) {
	a.in.Push(m)
	lower(&a.p.hkey[a.hid], at)
}

// sneak pushes into the input without lowering the key.
func (a *router) sneak(m int) {
	a.in.Push(m) // want `sneak pushes into a\.in, an input of router, without lowering its key`
}

// helper is NOT a unit — no hid field — so its fields are not gating.
type helper struct {
	busyUntil uint64
}

func (h *helper) tick(now uint64) { h.busyUntil = now }

type core struct {
	u     *unit
	a     *router
	h     *helper
	hkey  []uint64
	other []uint64
}

// rebuildHorizon derives every key: clean.
func (p *core) rebuildHorizon() {
	p.hkey = make([]uint64, 2)
	for i := range p.hkey {
		p.hkey[i] = ^uint64(0)
	}
	p.u.hid, p.a.hid = 0, 1
	p.u.inQ.key, p.u.inQ.gate = &p.hkey[0], &p.u.busyUntil
}

// stepAll rekeys each unit directly after its step: clean.
func (p *core) stepAll(now uint64) {
	p.u.step(now)
	p.hkey[p.u.hid] = p.u.nextEvent()
	if a := p.a; p.hkey[a.hid] <= now {
		a.step(now)
		p.hkey[a.hid] = a.nextEvent()
	}
	p.h.tick(now)
	p.other[0] = now // not a key: clean
}

// stepLate puts a statement between the step and its rekey.
func (p *core) stepLate(now uint64) {
	p.u.step(now) // want `stepLate steps p\.u without the rekey`
	p.h.tick(now)
	p.hkey[p.u.hid] = p.u.nextEvent() // want `stepLate writes a horizon key outside lower`
}

// stepOnly never rekeys.
func (p *core) stepOnly(now uint64) {
	p.a.step(now) // want `stepOnly steps p\.a without the rekey`
}

// poke writes a key directly and through a pointer.
func (p *core) poke(k *uint64) {
	p.hkey[p.u.hid] = 0 // want `poke writes a horizon key outside lower`
	*k = 3              // want `poke writes a horizon key outside lower`
}

// feed bypasses the wired FIFO's push.
func (p *core) feed(now uint64) {
	p.u.inQ.push(int(now), now+1)
	p.u.inQ.q.Push(int(now)) // want `feed pushes into p\.u\.inQ\.q, the inner queue of a wired FIFO`
}

// parkRetry carries a justified suppression.
func (p *core) parkRetry(now uint64) {
	//lint:ignore dirtyhorizon the caller rekeys this unit unconditionally right after
	p.u.busyUntil = now + 1
}
