package nanos

import (
	"repro/internal/sim"
	"repro/internal/trace"
)

// Engine adapts the software-only runtime model to the sim registry.
type Engine struct{}

// Name returns the registry name.
func (Engine) Name() string { return "nanos" }

// Run executes the source on the software-only runtime.
//
// The accelerator knobs do not exist here: Nanos++ is the paper's
// software baseline, with no gateway, DM or TS hardware to configure,
// and its event-driven model has no per-cycle loop for FastForward to
// select.
//
//picos:ignores-knobs Admission,FastForward,Faults,NewQDepth,NumDCT,NumTRS,Recovery,RunAhead,ShardHop accelerator-only knobs; the software runtime has no GW/DM/TS hardware, is inherently event-driven, and serves as the fault-free control arm of the resilience sweeps
func (Engine) Run(src trace.Source, spec sim.Spec) (*sim.Result, error) {
	cfg, err := config(spec)
	if err != nil {
		return nil, err
	}
	return Run(src, cfg)
}

// config maps the spec's scheduling knobs onto a runtime Config.
func config(spec sim.Spec) (Config, error) {
	plan, err := spec.SchedPlan()
	if err != nil {
		return Config{}, err
	}
	cfg := Config{
		Workers:  spec.Workers,
		Classes:  plan.Classes,
		Sched:    plan.Policy,
		Steal:    plan.Steal,
		Watchdog: spec.Watchdog,
		Window:   spec.Window,
	}
	if len(cfg.Classes) > 0 {
		cfg.Workers = 0 // the class list fixes the worker count
	}
	return cfg, nil
}

func init() { sim.Register(Engine{}) }
