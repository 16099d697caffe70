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

// Run executes the source on the platform under the spec's knobs and
// descriptor window (see stream.go).
func (e Engine) Run(src trace.Source, spec sim.Spec) (*sim.Result, error) {
	cfg, err := e.config(spec)
	if err != nil {
		return nil, err
	}
	res, err := runSource(src, cfg)
	if err != nil {
		return nil, err
	}
	return &res.Result, nil
}

// config translates the declarative spec into the platform config.
func (e Engine) config(spec sim.Spec) (Config, error) {
	cfg := DefaultConfig()
	cfg.Mode = e.Mode
	cfg.Workers = spec.Workers
	cfg.Watchdog = spec.Watchdog
	cfg.Window = spec.Window
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
