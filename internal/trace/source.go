package trace

import "fmt"

// Source is the streaming workload contract: an ordered stream of tasks
// in creation order, pulled one descriptor at a time the way the paper's
// gateway consumes its bounded new-task queue — the prototype never sees
// a whole graph. Engines that drive a Source under a bounded window keep
// O(window) descriptors live, so arbitrarily long replays (and uploaded
// graphs of unknown size) run in constant memory.
//
// The contract:
//
//   - Next returns descriptors with IDs 0, 1, 2, ... in creation order
//     and (Task{}, false) when the stream is exhausted. The returned
//     Task's Deps slice belongs to the caller: the source must not reuse
//     or mutate it after returning (generators build a fresh slice per
//     task; adapters over materialized traces hand out the stored one,
//     which nothing mutates).
//   - Rewind restarts the stream from task 0. Multi-pass consumers — the
//     perfect roofline's critical-path weighting, equivalence harnesses
//     replaying the same stream on two loops — depend on it; sources
//     over non-seekable inputs may return an error.
//   - Kinds is the kernel-family name table (Task.Kind values are
//     1-based indices into it). It must be complete before the first
//     Next call for kinds used anywhere in the stream: schedulers bind
//     class affinities to it up front.
//   - SerialCycles and RefSeqCycles carry the Trace fields of the same
//     names, so a streaming run computes the same Baseline once the
//     stream's duration sum is known.
type Source interface {
	Name() string
	Kinds() []string
	Next() (Task, bool)
	Rewind() error
	SerialCycles() uint64
	RefSeqCycles() uint64
}

// TraceSource adapts a materialized *Trace to the Source interface — the
// back-compat bridge that lets every existing workload flow through the
// streaming drivers unchanged.
type TraceSource struct {
	tr   *Trace
	next int
}

// FromTrace wraps a materialized trace as a rewindable Source.
func FromTrace(tr *Trace) *TraceSource { return &TraceSource{tr: tr} }

// Name returns the underlying trace's name.
func (s *TraceSource) Name() string { return s.tr.Name }

// Kinds returns the underlying trace's kind table.
func (s *TraceSource) Kinds() []string { return s.tr.Kinds }

// Next returns the next task in creation order.
func (s *TraceSource) Next() (Task, bool) {
	if s.next >= len(s.tr.Tasks) {
		return Task{}, false
	}
	t := s.tr.Tasks[s.next]
	s.next++
	return t, true
}

// Rewind restarts the stream from task 0. Always succeeds.
func (s *TraceSource) Rewind() error { s.next = 0; return nil }

// SerialCycles returns the underlying trace's serial-work cycles.
func (s *TraceSource) SerialCycles() uint64 { return s.tr.SerialCycles }

// RefSeqCycles returns the underlying trace's measured sequential time.
func (s *TraceSource) RefSeqCycles() uint64 { return s.tr.RefSeqCycles }

// Materialize drains a Source into a validated Trace, rewinding it
// first. It is the escape hatch for inherently multi-pass whole-graph
// consumers (the perfect roofline weights complete critical paths) and
// for tools that serialize or draw graphs — it defeats the O(window)
// memory bound, so engine code must not call it outside the sanctioned
// sites (picoslint's materializewall check enforces this).
func Materialize(src Source) (*Trace, error) {
	if tr := AlreadyMaterialized(src); tr != nil {
		return tr, nil
	}
	if err := src.Rewind(); err != nil {
		return nil, fmt.Errorf("trace: materialize %s: %w", src.Name(), err)
	}
	tr := &Trace{
		Name:         src.Name(),
		SerialCycles: src.SerialCycles(),
		RefSeqCycles: src.RefSeqCycles(),
		Kinds:        append([]string(nil), src.Kinds()...),
	}
	for {
		t, ok := src.Next()
		if !ok {
			break
		}
		tr.Tasks = append(tr.Tasks, t)
	}
	// A source that failed mid-stream ended early: its error, not the
	// truncated prefix, is the result.
	if err := SourceErr(src); err != nil {
		return nil, fmt.Errorf("trace: materialize %s: %w", src.Name(), err)
	}
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("trace: materialize %s: %w", src.Name(), err)
	}
	return tr, nil
}

// AlreadyMaterialized returns the backing trace of a FromTrace adapter,
// or nil for a genuinely streaming source. Drivers use it to skip a
// redundant copy-and-revalidate when the workload was materialized all
// along.
func AlreadyMaterialized(src Source) *Trace {
	if ts, ok := src.(*TraceSource); ok {
		return ts.tr
	}
	return nil
}

// SourceErr returns the mid-stream error of a source that implements
// the optional Err() method (a parser hitting malformed input after
// tasks were already handed out can only signal it once Next returns
// false). Sources without the method never fail mid-stream.
func SourceErr(src Source) error {
	if e, ok := src.(interface{ Err() error }); ok {
		return e.Err()
	}
	return nil
}

// ValidateTask checks the per-task invariants of Validate for one
// streamed descriptor: ID equals its creation position, at most MaxDeps
// dependences, no duplicate address within the dependence list, non-zero
// duration, and a kind within the nKinds-entry table. Streaming drivers
// call it as descriptors arrive — the whole-trace Validate is
// unavailable when the whole trace never exists.
func ValidateTask(task *Task, pos int, nKinds int) error {
	if task.ID != uint32(pos) {
		return fmt.Errorf("%w: task %d has ID %d", ErrBadID, pos, task.ID)
	}
	if len(task.Deps) > MaxDeps {
		return fmt.Errorf("%w: task %d has %d", ErrTooManyDeps, pos, len(task.Deps))
	}
	if task.Duration == 0 {
		return fmt.Errorf("%w: task %d", ErrZeroDuration, pos)
	}
	if int(task.Kind) > nKinds {
		return fmt.Errorf("%w: task %d kind %d exceeds kind table (%d entries)",
			ErrBadKind, pos, task.Kind, nKinds)
	}
	for a := 0; a < len(task.Deps); a++ {
		for b := a + 1; b < len(task.Deps); b++ {
			if task.Deps[a].Addr == task.Deps[b].Addr {
				return fmt.Errorf("%w: task %d addr %#x", ErrDupAddr, pos, task.Deps[a].Addr)
			}
		}
	}
	return nil
}
