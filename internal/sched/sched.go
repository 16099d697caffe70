// Package sched is the pluggable execution layer shared by every
// engine that models workers pulling ready tasks: the Picos HIL runner
// (internal/hil), the software-only runtime (internal/nanos) and the
// zero-overhead roofline (internal/perfect).
//
// It factors the previously per-engine worker model — a flat worker
// array plus an idle-index min-heap granting ready tasks FIFO to the
// lowest-index idle core — into three orthogonal, spec-driven pieces:
//
//   - worker classes: heterogeneous platforms declared with the grammar
//     "4xfast+4xslow:2.0+1xaccel:0.25@stencil_2d,fft" — count x name,
//     an optional per-class service-time multiplier (task duration is
//     scaled by it, so 2.0 is a half-speed core and 0.25 a 4x
//     accelerator), and an optional task-kind affinity list after '@'
//     (a class with affinity runs ONLY tasks of those kinds);
//   - grant policies (Policy): fifo preserves the historical
//     lowest-index/oldest-ready semantics bit for bit, lifo grants the
//     youngest ready task, priority grants by critical-path bottom
//     level from taskgraph, locality prefers pairing a task with the
//     class that last ran its kind;
//   - work stealing (per-class ready queues with a deterministic
//     ascending-class victim order), off by default.
//
// The design space follows HTS (arXiv:1907.00271): classes, affinity,
// policy queues and stealing are independent knobs so sweeps can cross
// them freely.
package sched

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Class is one worker class of a heterogeneous platform.
type Class struct {
	// Name identifies the class (e.g. "fast", "slow", "accel").
	Name string
	// Count is the number of workers of this class (>= 1).
	Count int
	// Mult is the service-time multiplier applied to task durations on
	// this class: 1.0 is the baseline core, 2.0 takes twice as long,
	// 0.25 is a 4x accelerator. Must be > 0.
	Mult float64
	// Affinity, when non-empty, restricts the class to tasks of these
	// kinds (trace kind names). A class without affinity runs any task.
	Affinity []string
}

// Classes is an ordered list of worker classes. Worker indices are
// assigned contiguously in declaration order: class 0 holds workers
// [0, Count0), class 1 holds [Count0, Count0+Count1), and so on — so
// with the historical lowest-index-first grant, earlier classes are
// preferred. Declare the fastest class first.
type Classes []Class

// ErrNoEligibleClass is returned when a trace contains a task kind that
// no declared worker class may run.
var ErrNoEligibleClass = errors.New("sched: task kind has no eligible worker class")

// ErrNoBottomLevels is returned by Pool.Reset when the Priority policy
// arrives without per-task bottom levels: they are a backward pass over
// the whole graph, which a streamed workload never has.
var ErrNoBottomLevels = errors.New("sched: priority scheduling ranks tasks by whole-graph bottom levels, which a stream does not have")

// Parse parses the worker-class grammar:
//
//	spec     := class ("+" class)*
//	class    := count "x" name [":" mult] ["@" kind ("," kind)*]
//	count    := positive integer
//	mult     := positive float (default 1.0)
//
// Example: "4xfast+4xslow:2.0+1xaccel:0.25@stencil_2d,fft".
// An empty string parses to nil (the homogeneous default).
func Parse(spec string) (Classes, error) {
	if spec == "" {
		return nil, nil
	}
	var cs Classes
	for _, seg := range strings.Split(spec, "+") {
		c, err := parseClass(seg)
		if err != nil {
			return nil, fmt.Errorf("sched: class %q: %w", seg, err)
		}
		for _, prev := range cs {
			if prev.Name == c.Name {
				return nil, fmt.Errorf("sched: duplicate class name %q", c.Name)
			}
		}
		cs = append(cs, c)
	}
	return cs, nil
}

func parseClass(seg string) (Class, error) {
	c := Class{Mult: 1.0}
	xi := strings.Index(seg, "x")
	if xi <= 0 {
		return c, errors.New(`want "<count>x<name>[:<mult>][@kind,...]"`)
	}
	n, err := strconv.Atoi(seg[:xi])
	if err != nil || n < 1 {
		return c, fmt.Errorf("bad worker count %q", seg[:xi])
	}
	c.Count = n
	rest := seg[xi+1:]
	if at := strings.Index(rest, "@"); at >= 0 {
		for _, fam := range strings.Split(rest[at+1:], ",") {
			if fam == "" {
				return c, errors.New("empty kind in affinity list")
			}
			c.Affinity = append(c.Affinity, fam)
		}
		rest = rest[:at]
	}
	if ci := strings.Index(rest, ":"); ci >= 0 {
		m, err := strconv.ParseFloat(rest[ci+1:], 64)
		if err != nil || !(m > 0) || math.IsInf(m, 0) {
			return c, fmt.Errorf("bad service-time multiplier %q", rest[ci+1:])
		}
		c.Mult = m
		rest = rest[:ci]
	}
	if rest == "" {
		return c, errors.New("empty class name")
	}
	for _, r := range rest {
		if !(r == '_' || r == '-' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9') {
			return c, fmt.Errorf("bad class name %q", rest)
		}
	}
	c.Name = rest
	return c, nil
}

// String re-serializes the classes in the Parse grammar.
func (cs Classes) String() string {
	var b strings.Builder
	for i, c := range cs {
		if i > 0 {
			b.WriteByte('+')
		}
		fmt.Fprintf(&b, "%dx%s", c.Count, c.Name)
		if c.Mult != 1.0 {
			fmt.Fprintf(&b, ":%g", c.Mult)
		}
		if len(c.Affinity) > 0 {
			b.WriteByte('@')
			b.WriteString(strings.Join(c.Affinity, ","))
		}
	}
	return b.String()
}

// Workers returns the total worker count across all classes.
func (cs Classes) Workers() int {
	n := 0
	for _, c := range cs {
		n += c.Count
	}
	return n
}

// Uniform reports whether the classes describe the historical
// homogeneous platform: at most one class at baseline speed with no
// affinity (nil Classes count as uniform).
func (cs Classes) Uniform() bool {
	switch len(cs) {
	case 0:
		return true
	case 1:
		return cs[0].Mult == 1.0 && len(cs[0].Affinity) == 0
	default:
		return false
	}
}

// Single returns the degenerate homogeneous platform of n baseline
// workers, for engines that normalize a class-less Spec onto the pool.
func Single(n int) Classes {
	return Classes{{Name: "worker", Count: n, Mult: 1.0}}
}

// Scale returns dur scaled by class ci's service-time multiplier,
// rounded up and clamped to at least one cycle.
func (cs Classes) Scale(ci int, dur uint64) uint64 {
	m := cs[ci].Mult
	if m == 1.0 {
		return dur
	}
	d := uint64(math.Ceil(float64(dur) * m))
	if d == 0 {
		d = 1
	}
	return d
}

// Eligibility resolves each class's affinity list against a trace's
// kind table (kind id k > 0 names kinds[k-1]; kind 0 is "unkinded").
// A nil row means the class runs every kind; otherwise row[k] reports
// whether kind id k may run on the class. Affinity names absent from
// the table simply match nothing (the class sits idle for this trace).
func (cs Classes) Eligibility(kinds []string) [][]bool {
	return cs.eligibility(nil, kinds)
}

// eligibility is Eligibility writing into el's storage, rows included,
// so a warm Pool.Reset allocates nothing. A reused row of a class
// without affinity is empty rather than nil.
func (cs Classes) eligibility(el [][]bool, kinds []string) [][]bool {
	if cap(el) < len(cs) {
		el = make([][]bool, len(cs))
	}
	el = el[:len(cs)]
	for ci, c := range cs {
		row := el[ci][:0]
		if len(c.Affinity) > 0 {
			row = slices.Grow(row, len(kinds)+1)[:len(kinds)+1]
			clear(row)
			for _, fam := range c.Affinity {
				for ki, k := range kinds {
					if k == fam {
						row[ki+1] = true
					}
				}
			}
		}
		el[ci] = row
	}
	return el
}

// BestMult returns the smallest service-time multiplier among classes
// eligible for kind id k — the speed of the best possible placement,
// used to weight the perfect roofline's critical path. el must come
// from Eligibility. The boolean is false when no class is eligible.
func (cs Classes) BestMult(el [][]bool, k uint16) (float64, bool) {
	best, ok := 0.0, false
	for ci, c := range cs {
		if el[ci] != nil && !el[ci][k] {
			continue
		}
		if !ok || c.Mult < best {
			best, ok = c.Mult, true
		}
	}
	return best, ok
}

// CheckCoverage verifies that every kind id marked in present (indexed
// 0..len(kinds), with 0 the unkinded sentinel) has at least one
// eligible class, returning ErrNoEligibleClass otherwise. A nil present
// means any declared kind may appear (a stream, whose kind usage is
// unknown up front). Engines call this at Reset so affinity
// misconfigurations are typed construction errors instead of silent
// deadlocks.
func (cs Classes) CheckCoverage(kinds []string, present []bool) error {
	el := cs.Eligibility(kinds)
	for k := 0; k <= len(kinds); k++ {
		if present != nil && !present[k] {
			continue
		}
		if _, ok := cs.BestMult(el, uint16(k)); !ok {
			name := "(unkinded)"
			if k > 0 {
				name = kinds[k-1]
			}
			return fmt.Errorf("%w: kind %s under classes %q", ErrNoEligibleClass, name, cs.String())
		}
	}
	return nil
}

// Validate checks structural invariants beyond what Parse enforces,
// for Classes built programmatically.
func (cs Classes) Validate() error {
	for i, c := range cs {
		if c.Count < 1 {
			return fmt.Errorf("sched: class %q has count %d", c.Name, c.Count)
		}
		if !(c.Mult > 0) || math.IsInf(c.Mult, 0) {
			return fmt.Errorf("sched: class %q has multiplier %v", c.Name, c.Mult)
		}
		if c.Name == "" {
			return fmt.Errorf("sched: class %d has no name", i)
		}
		for j := 0; j < i; j++ {
			if cs[j].Name == c.Name {
				return fmt.Errorf("sched: duplicate class name %q", c.Name)
			}
		}
	}
	return nil
}

// Policy selects how a ready task is chosen for an idle worker.
type Policy uint8

const (
	// FIFO grants the oldest ready task to the lowest-index idle
	// worker — the historical semantics, preserved bit for bit.
	FIFO Policy = iota
	// LIFO grants the youngest ready task.
	LIFO
	// Priority grants the ready task with the largest duration-weighted
	// critical-path bottom level (taskgraph.BottomLevels), oldest first
	// on ties.
	Priority
	// Locality prefers pairing a task with the worker class that last
	// ran the task's kind, falling back to FIFO order when the
	// preferred class has no idle worker.
	Locality
)

// ParsePolicy maps a Spec string to a Policy; "" means FIFO.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "fifo":
		return FIFO, nil
	case "lifo":
		return LIFO, nil
	case "priority":
		return Priority, nil
	case "locality":
		return Locality, nil
	default:
		return FIFO, fmt.Errorf("sched: unknown policy %q (want fifo, lifo, priority or locality)", s)
	}
}

// String returns the Spec spelling of the policy.
func (p Policy) String() string {
	switch p {
	case FIFO:
		return "fifo"
	case LIFO:
		return "lifo"
	case Priority:
		return "priority"
	case Locality:
		return "locality"
	default:
		return fmt.Sprintf("Policy(%d)", uint8(p))
	}
}

// Plan is a fully parsed scheduling configuration, produced once by
// sim.Spec.SchedPlan and threaded to every engine.
type Plan struct {
	// Classes is nil for the homogeneous default.
	Classes Classes
	// Policy is the grant policy (FIFO by default).
	Policy Policy
	// Steal enables per-class ready queues with deterministic
	// ascending-class victim order.
	Steal bool
}
