package hil

import (
	"repro/internal/faults"
	"repro/internal/picos"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Engine adapts the HIL platform to the sim registry; one instance per
// integration mode (picos-hw, picos-comm, picos-full).
type Engine struct {
	Mode Mode
}

// Name returns the registry name of the mode.
func (e Engine) Name() string {
	switch e.Mode {
	case HWComm:
		return "picos-comm"
	case FullSystem:
		return "picos-full"
	default:
		return "picos-hw"
	}
}

// Run executes the trace on the platform under the spec's knobs.
func (e Engine) Run(tr *trace.Trace, spec sim.Spec) (*sim.Result, error) {
	cfg, err := e.config(spec)
	if err != nil {
		return nil, err
	}
	res, err := Run(tr, cfg)
	if err != nil {
		return nil, err
	}
	return toSimResult(res), nil
}

// RunStream executes a streaming task source on the platform under the
// spec's bounded descriptor window. The mapped Result carries aggregate
// probes only — Start/Finish/Order stay nil.
func (e Engine) RunStream(src trace.Source, spec sim.Spec) (*sim.Result, error) {
	cfg, err := e.config(spec)
	if err != nil {
		return nil, err
	}
	cfg.Window = spec.Window
	res, err := RunStream(src, cfg)
	if err != nil {
		return nil, err
	}
	return toSimResult(res), nil
}

// toSimResult maps a platform Result onto the engine-neutral sim one.
func toSimResult(res *Result) *sim.Result {
	stats := res.Stats
	return &sim.Result{
		Workers:    res.Workers,
		Makespan:   res.Makespan,
		Baseline:   res.Baseline,
		Speedup:    res.Speedup,
		FirstStart: res.FirstStart,
		ThrTask:    res.ThrTask,
		Stats:      &stats,
		Start:      res.Start,
		Finish:     res.Finish,
		Order:      res.Order,
		Wedged:     res.Wedged,
		WedgedAt:   res.WedgedAt,
		TimedOut:   res.TimedOut,

		Faulted:        res.Faulted,
		LostTasks:      res.LostTasks,
		RecoveredTasks: res.RecoveredTasks,
		RefusedTasks:   res.RefusedTasks,
		RefusedIDs:     res.RefusedIDs,
	}
}

// config translates the declarative spec into the platform config.
func (e Engine) config(spec sim.Spec) (Config, error) {
	cfg := DefaultConfig()
	cfg.Mode = e.Mode
	cfg.Workers = spec.Workers
	cfg.Watchdog = spec.Watchdog
	cfg.FastForward = spec.FastPath()
	plan, err := spec.SchedPlan()
	if err != nil {
		return cfg, err
	}
	cfg.Classes = plan.Classes
	cfg.Sched = plan.Policy
	cfg.Steal = plan.Steal
	if len(cfg.Classes) > 0 {
		cfg.Workers = 0 // the class list fixes the worker count
	}
	if cfg.Picos.Design, err = picos.ParseDesign(spec.Design); err != nil {
		return cfg, err
	}
	if cfg.Picos.Policy, err = picos.ParsePolicy(spec.Policy); err != nil {
		return cfg, err
	}
	if cfg.Picos.Admission, err = picos.ParseAdmission(spec.Admission); err != nil {
		return cfg, err
	}
	if cfg.Picos.Wake, err = picos.ParseWake(spec.Wake); err != nil {
		return cfg, err
	}
	if cfg.Picos.Conflict, err = picos.ParseConflict(spec.Conflict); err != nil {
		return cfg, err
	}
	cfg.Picos.NewQDepth = spec.NewQDepth
	if spec.RunAhead != 0 {
		cfg.RunAhead = spec.RunAhead
	}
	if spec.NumTRS > 0 {
		cfg.Picos.NumTRS = spec.NumTRS
	}
	if spec.NumDCT > 0 {
		cfg.Picos.NumDCT = spec.NumDCT
	}
	if cfg.Picos.ShardHash, err = picos.ParseShardHash(spec.ShardHash); err != nil {
		return cfg, err
	}
	if spec.ShardHop > 0 {
		cfg.Picos.Timing.ShardHop = uint64(spec.ShardHop)
	} else if spec.ShardHop < 0 {
		cfg.Picos.Timing.ShardHop = 0
	}
	if cfg.Faults, err = faults.ParsePlan(spec.Faults); err != nil {
		return cfg, err
	}
	if cfg.Recovery, err = faults.ParseRecovery(spec.Recovery); err != nil {
		return cfg, err
	}
	return cfg, nil
}

func init() {
	sim.Register(Engine{Mode: HWOnly})
	sim.Register(Engine{Mode: HWComm})
	sim.Register(Engine{Mode: FullSystem})
}
