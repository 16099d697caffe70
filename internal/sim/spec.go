package sim

import (
	"errors"
	"fmt"

	"repro/internal/sched"
)

// DefaultWorkers is the worker count of the paper's HIL platform (12
// PL-side hardware workers / 12 Xeon cores), used when a Spec leaves
// Workers zero.
const DefaultWorkers = 12

// Spec declares one simulation run: which engine, which workload, and
// every knob that was previously spread across hil.Config, picos.Config
// and per-binary flag parsing. The zero value of every field means "the
// paper's default". Specs are plain data — JSON-serializable and safe to
// copy — so a sweep is just a slice of them.
type Spec struct {
	// Engine is the registry name: picos-hw, picos-comm, picos-full,
	// nanos, perfect (see Engines()).
	Engine string `json:"engine"`
	// Workload is the workload-registry name: one of the six real
	// benchmarks (heat, lu, mlu, sparselu, cholesky, h264dec), one of the
	// seven synthetic capacity cases (case1..case7), or "trace:<path>"
	// for a serialized trace file.
	Workload string `json:"workload"`
	// Problem is the problem size for real benchmarks: the matrix
	// dimension (default 2048), or the frame count for h264dec (default
	// 10). Ignored by synthetic and file workloads.
	Problem int `json:"problem,omitempty"`
	// Block is the block size for real benchmarks (default 128; 4 for
	// h264dec, whose "block" is the macroblock grouping).
	Block int `json:"block,omitempty"`
	// Workers is the worker count (default DefaultWorkers). Mutually
	// exclusive with WorkerClasses, which derives the worker count from
	// the class list; setting both is a typed construction error
	// (ErrWorkersAndClasses).
	Workers int `json:"workers,omitempty"`

	// Heterogeneous-platform scheduling knobs (the HTS design space).
	// WorkerClasses declares worker classes with the sched grammar, e.g.
	// "4xfast+4xslow:2.0+1xaccel:0.25@stencil_2d,fft": count x name, an
	// optional per-class service-time multiplier and an optional
	// task-kind affinity list. Empty means Workers homogeneous baseline
	// cores. Sched selects the grant policy: fifo (default, the
	// historical lowest-index semantics), lifo, priority (critical-path
	// bottom level), locality (prefer the class that last ran the
	// task's kind). Steal enables per-class ready queues with
	// deterministic ascending-class victim order.
	WorkerClasses string `json:"worker_classes,omitempty"`
	Sched         string `json:"sched,omitempty"`
	Steal         bool   `json:"steal,omitempty"`

	// Picos accelerator knobs; ignored by nanos and perfect.
	Design    string `json:"design,omitempty"`    // DM design: 8way, 16way, p8way (default)
	Policy    string `json:"policy,omitempty"`    // TS policy: fifo (default), lifo
	Admission string `json:"admission,omitempty"` // GW admission: credits (default), slots, avoid-deadlock, avoid-deadlock-park
	NumTRS    int    `json:"num_trs,omitempty"`   // TRS instances (default 1)
	NumDCT    int    `json:"num_dct,omitempty"`   // DCT instances (default 1)

	// Sharded dependence-fabric knob (meaningful when NumDCT > 1):
	// ShardHop is the per-shard-crossed chain latency in cycles: 0 means
	// the calibrated default (1 cycle), a negative value models a free
	// (0-cycle) fabric.
	ShardHop int `json:"shard_hop,omitempty"`

	// Creation run-ahead pipeline knobs (the Picos HIL engines).
	// NewQDepth bounds the accelerator's memory-mapped submission buffer
	// (0 = unbounded, the preloading default); RunAhead bounds the
	// Full-system master's created-but-unsubmitted descriptor window
	// (0 = hil.DefaultRunAhead, negative = unbounded).
	NewQDepth int `json:"newq_depth,omitempty"`
	RunAhead  int `json:"run_ahead,omitempty"`

	// Window bounds streaming workload ingestion: the maximum number of
	// created-but-unretired task descriptors the engine keeps live at
	// once (the paper's prototype consumes a bounded descriptor stream,
	// never a whole graph). 0 means unbounded — the workload is
	// materialized and the engine records the per-task schedule; a
	// negative window is refused with ErrNegativeWindow. A positive window
	// streams the workload through trace.Source in O(window) heap;
	// results can legitimately differ from the unbounded run because the
	// window is modeled backpressure on creation, composing with
	// NewQDepth (the accelerator's submission buffer) and RunAhead (the
	// Full-system master's creation window). At the same window value the
	// fast and reference loops remain byte-identical.
	Window int `json:"window,omitempty"`

	// Watchdog bounds the simulated cycle count (0: engine default).
	Watchdog uint64 `json:"watchdog,omitempty"`

	// Deterministic fault injection and recovery (the Picos HIL engines;
	// nanos and perfect always run fault-free). Faults is a fault plan
	// in the faults grammar — clauses joined by "+", e.g.
	// "axi:drop=0.01@seed7+worker:failstop=2@cycle50000+dct:slowdown=4x:shard1"
	// — and Recovery the recovery-policy set, e.g.
	// "retry=3:backoff200+regrant+degrade=100000". Empty means
	// fault-free, which is byte-identical to a run without the fault
	// layer linked (the equivalence suite enforces it).
	Faults   string `json:"faults,omitempty"`
	Recovery string `json:"recovery,omitempty"`

	// FastForward selects the event-driven fast path of the Picos HIL
	// engines (nil or true: on, the default; false: force the per-cycle
	// reference loop — for debugging and for the differential
	// equivalence suite, which proves the two produce byte-identical
	// Results). Engines that are inherently event-driven (nanos,
	// perfect) ignore it. This is the only pointer field of Spec; copies
	// share it, which is safe because specs are read-only once built.
	FastForward *bool `json:"fast_forward,omitempty"`
}

// FastPath resolves the FastForward knob: nil means on.
func (s Spec) FastPath() bool { return s.FastForward == nil || *s.FastForward }

// ErrWorkersAndClasses is returned when a Spec sets both Workers and
// WorkerClasses: the class list already fixes the worker count, so a
// conflicting explicit count is a construction error, not a silent
// precedence rule.
var ErrWorkersAndClasses = errors.New("sim: Spec sets both Workers and WorkerClasses")

// ErrNegativeWindow is returned when a Spec sets a negative Window: 0
// already means unbounded, so a negative bound has no meaning to fall
// back on.
var ErrNegativeWindow = errors.New("sim: Spec.Window must be >= 0 (0 = unbounded)")

// SchedPlan parses the scheduling knobs (WorkerClasses, Sched, Steal)
// into a sched.Plan — the single place the class grammar and policy
// names are parsed, so every engine consumes the same validated
// configuration. It returns ErrWorkersAndClasses when both Workers and
// WorkerClasses are set (WithDefaults leaves Workers untouched when
// classes are declared, so a defaulted spec stays valid).
func (s Spec) SchedPlan() (sched.Plan, error) {
	var plan sched.Plan
	if s.WorkerClasses != "" && s.Workers != 0 {
		return plan, fmt.Errorf("%w: workers=%d, classes=%q", ErrWorkersAndClasses, s.Workers, s.WorkerClasses)
	}
	classes, err := sched.Parse(s.WorkerClasses)
	if err != nil {
		return plan, err
	}
	plan.Classes = classes
	plan.Policy, err = sched.ParsePolicy(s.Sched)
	if err != nil {
		return plan, err
	}
	plan.Steal = s.Steal
	return plan, nil
}

// ClassPlan parses only the WorkerClasses knob (with the same
// Workers-conflict check), for engines that honor heterogeneous
// classes but not the grant-policy knobs — the perfect roofline always
// grants greedily.
func (s Spec) ClassPlan() (sched.Classes, error) {
	if s.WorkerClasses != "" && s.Workers != 0 {
		return nil, fmt.Errorf("%w: workers=%d, classes=%q", ErrWorkersAndClasses, s.Workers, s.WorkerClasses)
	}
	return sched.Parse(s.WorkerClasses)
}

// Bool returns a pointer to v, for setting Spec.FastForward inline:
// spec.FastForward = sim.Bool(false).
func Bool(v bool) *bool { return &v }

// WithDefaults returns the spec with zero-valued shared fields replaced
// by their defaults. Engine-specific zero values are resolved by the
// engines themselves. When WorkerClasses is set, Workers stays zero —
// the class list fixes the worker count.
func (s Spec) WithDefaults() Spec {
	if s.Workers == 0 && s.WorkerClasses == "" {
		s.Workers = DefaultWorkers
	}
	return s
}
