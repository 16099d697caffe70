// Package picos is the core contribution of the reproduced paper: a
// cycle-level model of the Picos hardware accelerator for task and
// dependence management (Section III). The accelerator is composed of a
// Gateway (GW), N Task Reservation Stations (TRS) backed by Task Memory
// (TM0 + TMX), N Dependence Chain Trackers (DCT) backed by a Dependence
// Memory (DM, three designs) and a Version Memory (VM), an Arbiter (ARB)
// routing TRS<->DCT traffic, and a Task Scheduler (TS) holding ready
// tasks. Units communicate exclusively through registered FIFOs whose
// contents become visible one cycle after being pushed, exactly like the
// asynchronous FIFO fabric of the prototype.
package picos

import "repro/internal/trace"

// TaskHandle identifies an in-flight task: which TRS holds it and which
// TM0 slot it occupies. Slots are recycled only after the task's finish
// walk completes, so a live handle is unambiguous.
type TaskHandle struct {
	TRS  uint8
	Slot uint16
}

// VMAddr identifies a Version Memory entry: which DCT owns it and the
// entry index. Dependences are partitioned across DCTs by address, so the
// entire version chain of an address lives in a single DCT.
type VMAddr struct {
	DCT uint8
	Idx uint16
}

// newTaskPkt is the GW -> TRS dispatch of a new task (flow step N3).
type newTaskPkt struct {
	slot    uint16
	id      uint32
	numDeps uint8
}

// newDepPkt is the GW -> DCT forwarding of one dependence (N4).
type newDepPkt struct {
	addr   uint64
	task   TaskHandle
	depIdx uint8
	dir    trace.Direction
}

// depStatusPkt is the DCT -> TRS response for a registered dependence
// (N5): either a ready packet (ready=true) or a dependent packet. A
// dependent packet for a consumer chained behind another consumer carries
// the wake pointer — "dependent TRS slot" in the paper — telling the TRS
// that when this dependence wakes it must also wake wakeTask's
// dependence on the same VM entry. Its fields are ordered so it packs
// into 16 bytes: it is also the body of every routed message (arbMsg).
type depStatusPkt struct {
	task    TaskHandle
	depIdx  uint8
	ready   bool
	vm      VMAddr
	hasWake bool
	// setWake updates the wake pointer of an already-registered
	// dependence instead of registering a new one (used by the
	// WakeFirstFirst ablation, where chains point forward).
	setWake  bool
	wakeTask TaskHandle
}

// wakePkt wakes one dependence (identified by its VM entry) of a waiting
// task. DCTs emit it when a producer finishes (waking the last consumer,
// F4) or when a version drains (waking the next producer); TRSs emit it
// through the Arbiter to propagate a consumer chain (links 2..n of
// Figure 5).
type wakePkt struct {
	task TaskHandle
	vm   VMAddr
}

// finishDepPkt is the TRS -> DCT notification that one dependence of a
// finished task can be released (F3).
type finishDepPkt struct {
	task TaskHandle
	vm   VMAddr
}

// finishedTaskPkt is the GW -> TRS notification that a task completed
// execution (F2).
type finishedTaskPkt struct {
	slot uint16
}

// readyTaskPkt is the TRS -> TS hand-off of a task whose dependences are
// all ready (N6).
type readyTaskPkt struct {
	task TaskHandle
	id   uint32
}

// ReadyTask is what the Task Scheduler hands to a worker: the task's
// trace ID plus the handle the worker must return in NotifyFinish.
type ReadyTask struct {
	Handle TaskHandle
	ID     uint32
}

// arbMsg is one message routed by the Arbiter, one 32-byte record for
// every kind so the arbiter heap sifts 48-byte entries. The body is a
// status packet whole (arbStat), the task and VM entry of a wake
// (arbWake) or a release (arbFin), or the task and dependence index of
// a new dependence (arbNewDep), which alone also carries dir and addr.
type arbMsg struct {
	kind arbKind
	dir  trace.Direction
	body depStatusPkt
	addr uint64
}

type arbKind uint8

const (
	arbWake   arbKind = iota // TRS -> TRS or DCT -> TRS wake
	arbFin                   // TRS -> DCT finish release
	arbStat                  // DCT -> TRS dependence status
	arbNewDep                // GW -> DCT dependence fan-out (sharded fabric only)
)
