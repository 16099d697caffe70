package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/hil"
	"repro/internal/picos"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/taskgraph"
	"repro/internal/trace"
)

// perLayer declares the traced run's metrics and, for each, the
// end-to-end metric and workload it should move.
var perLayer = []metricDef{
	{"trace.overhead_pct", "%", "none: traced tasks_per_s against the untraced half of the same run"},

	{"cpu.picos.gw", "share", "ns_per_task_p50 on accel-finegrain"},
	{"cpu.picos.trs", "share", "ns_per_task_p50 on accel-finegrain"},
	{"cpu.picos.dct", "share", "ns_per_task_p50 on accel-finegrain"},
	{"cpu.picos.arbiter", "share", "ns_per_task_p50 on accel-finegrain"},
	{"cpu.picos.ts", "share", "ns_per_task_p50 on accel-finegrain"},
	{"cpu.picos.horizon", "share", "ns_per_task_p50 on accel-finegrain"},
	{"cpu.picos.fifo", "share", "ns_per_task_p50 on accel-finegrain"},
	{"cpu.picos.other", "share", "ns_per_task_p50 on accel-finegrain"},
	{"cpu.queue", "share", "tasks_per_s on accel-finegrain and platform-full"},
	{"cpu.hil", "share", "tasks_per_s on platform-full"},
	{"cpu.faults", "share", "tasks_per_s on platform-full"},
	{"cpu.sched", "share", "tasks_per_s on platform-full and software-runtime"},
	{"cpu.nanos", "share", "tasks_per_s on software-runtime"},
	{"cpu.perfect", "share", "tasks_per_s on software-runtime"},
	{"cpu.taskgraph", "share", "tasks_per_s on software-runtime"},
	{"cpu.source", "share", "tasks_per_s on stream-window"},
	{"cpu.sim", "share", "ns_per_task_p50 on paper-sweep"},
	{"cpu.bench", "share", "none: the benchmark's own loop"},
	{"cpu.runtime.gc", "share", "allocs_per_task and tasks_per_s on software-runtime"},
	{"cpu.runtime.other", "share", "tasks_per_s on every workload"},
	{"cpu.runtime.malloc", "share", "allocs_per_task on software-runtime and stream-window"},

	{"source.build_ns_per_task", "ns", "setup_s on accel-finegrain and software-runtime"},
	{"source.next_ns_per_task", "ns", "tasks_per_s on stream-window"},
	{"taskgraph.build_ns_per_task", "ns", "tasks_per_s on software-runtime"},
	{"taskgraph.verify_ns_per_task", "ns", "none yet: prices an online schedule checker"},

	{"picos.submit_ns", "ns", "ns_per_task_p50 on accel-finegrain"},
	{"picos.run_to_ready_ns", "ns", "ns_per_task_p50 on accel-finegrain"},
	{"picos.next_event_ns", "ns", "ns_per_task_p50 on accel-finegrain"},
	{"picos.pop_ready_ns", "ns", "ns_per_task_p50 on accel-finegrain"},
	{"picos.notify_finish_ns", "ns", "ns_per_task_p50 on accel-finegrain"},
	{"picos.reset_ns", "ns", "ns_per_task_p50 on paper-sweep"},
	{"picos.driver_ns_per_task", "ns", "ns_per_task_p50 on accel-finegrain"},
	{"picos.run_to_ready_calls_per_task", "calls/task", "ns_per_task_p50 on accel-finegrain"},

	{"picos.util.gw", "share", "none: simulated, exact"},
	{"picos.util.trs", "share", "none: simulated, exact"},
	{"picos.util.dct", "share", "none: simulated, exact"},
	{"picos.util.ts", "share", "none: simulated, exact"},
	{"picos.arb.routed_per_task", "msgs/task", "none: simulated, exact"},

	{"sim.dm_conflicts", "count/task", "none: simulated, exact"},
	{"sim.dm_conflict_stall_cycles", "cycles/task", "none: simulated, exact"},
	{"sim.vm_stall_cycles", "cycles/task", "none: simulated, exact"},
	{"sim.gw_blocked_cycles", "cycles/task", "none: simulated, exact"},
	{"sim.wakes_routed", "count/task", "none: simulated, exact"},
	{"sim.max_vm_live", "count", "none: simulated, exact"},
	{"sim.lock_busy_share", "share", "none: simulated, exact"},

	{"sched.enqueue_grant_ns.fifo", "ns", "tasks_per_s on platform-full and software-runtime"},
	{"sched.enqueue_grant_ns.locality_steal", "ns", "tasks_per_s on platform-full"},

	{"sweep.parallel_efficiency", "ratio", "ns_per_task_p50 on paper-sweep"},
}

// layers is the detail behind the traced run's per-layer metrics, which
// it collects for the report.
type layers struct {
	Metrics     metrics                `json:"-"`
	Moves       map[string]string      `json:"moves"`
	Engines     map[string]engineSpans `json:"engines"`
	CPUNsTask   map[string]float64     `json:"cpu_ns_per_task"`
	CPUSamples  int                    `json:"cpu_samples"`
	CPUExcluded int                    `json:"cpu_samples_excluded"`
	ClockNs     float64                `json:"clock_overhead_ns"`
	TasksPerS   map[string]float64     `json:"tasks_per_s"`
	PicosCalls  map[string]int64       `json:"picos_calls"`
}

// engineSpans aggregates the spans of one engine (or of sweeps, whose
// grids mix engines) in raw host time.
type engineSpans struct {
	Spans         int     `json:"spans"`
	NsPerTask     float64 `json:"ns_per_task"`
	AllocsPerTask float64 `json:"allocs_per_task"`
	ns            int64
	allocs        uint64
	tasks         int
}

// span is one recorded interval; parent is the enclosing op span's index
// or -1 for an op span.
type span struct {
	name       string
	parent     int
	start, end time.Duration
}

// tracer keeps spans in memory for the traced phase. A nil tracer
// records nothing, so untraced rounds pay only a nil check.
type tracer struct {
	epoch   time.Time
	spans   []span
	engines map[string]*engineSpans
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), engines: map[string]*engineSpans{}}
}

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Since(t.epoch)})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].end = time.Since(t.epoch)
}

// account charges one op execution to its engine.
func (t *tracer) account(o op, tasks int, ns int64, allocs uint64) {
	if t == nil {
		return
	}
	name := "sweep"
	if !o.sweep {
		name = o.specs[0].Engine
	}
	e := t.engines[name]
	if e == nil {
		e = &engineSpans{}
		t.engines[name] = e
	}
	e.Spans++
	e.ns += ns
	e.allocs += allocs
	e.tasks += tasks
}

// writeChromeTrace writes the spans as Chrome trace-event JSON: one
// complete ("X") event per span, calls nested under their op.
func (t *tracer) writeChromeTrace(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		cat, args := "op", map[string]any{"id": i}
		if s.parent >= 0 {
			cat, args = "call", map[string]any{"id": i, "parent": s.parent, "op": t.spans[s.parent].name}
		}
		events[i] = event{Name: s.name, Cat: cat, Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3, Pid: 1, Tid: 1, Args: args}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// runTraced sets up, runs half the timed budget untraced and half traced
// (spans and a CPU profile), then runs the layer drivers on the
// workload's inputs. It writes spans.json, cpu.pprof and layers.json (the
// report) under dir/<workload>.
func runTraced(w workload, cfg config, dir string) (*report, error) {
	const phaseMinRounds = 3
	dir = filepath.Join(dir, w.name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	r := newRunner(w, cfg)
	r.setup()
	untraced := r.timed(cfg.seconds/2, phaseMinRounds, nil)

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	t := newTracer()
	traced := r.timed(cfg.seconds/2, phaseMinRounds, t)
	pprof.StopCPUProfile()

	l := &layers{
		Metrics:    metrics{},
		Moves:      map[string]string{},
		Engines:    map[string]engineSpans{},
		TasksPerS:  map[string]float64{"untraced": untraced.tasksPerS(), "traced": traced.tasksPerS()},
		PicosCalls: map[string]int64{},
	}
	for _, d := range perLayer {
		l.Moves[d.name] = d.moves
	}
	l.Metrics.set("trace.overhead_pct", (untraced.tasksPerS()/traced.tasksPerS()-1)*100, traced.rounds)
	for name, e := range t.engines {
		e.NsPerTask = float64(e.ns) / float64(max(e.tasks, 1))
		e.AllocsPerTask = float64(e.allocs) / float64(max(e.tasks, 1))
		l.Engines[name] = *e
	}
	if err := l.cpu(prof.Bytes(), traced.tasks); err != nil {
		return nil, err
	}
	r.simCounters(l.Metrics)
	r.drivers(l)
	r.checkFidelity()

	if err := os.WriteFile(filepath.Join(dir, "cpu.pprof"), prof.Bytes(), 0o644); err != nil {
		return nil, err
	}
	if err := t.writeChromeTrace(filepath.Join(dir, "spans.json")); err != nil {
		return nil, err
	}
	rep := r.report(traced, true)
	rep.Metrics = l.Metrics
	rep.Layers = l
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	return rep, os.WriteFile(filepath.Join(dir, "layers.json"), data, 0o644)
}

// cpu turns the traced phase's CPU profile into the per-unit ledger.
func (l *layers) cpu(prof []byte, tasks int) error {
	ledger, err := cpuLedger(prof)
	if err != nil {
		return err
	}
	l.CPUSamples, l.CPUExcluded = ledger.samples, ledger.excluded
	l.CPUNsTask = map[string]float64{}
	for _, u := range ledgerUnits {
		share := 0.0
		if ledger.total > 0 {
			share = float64(ledger.ns[u]) / float64(ledger.total)
		}
		l.Metrics.set("cpu."+u, share, ledger.samples)
		l.CPUNsTask[u] = float64(ledger.ns[u]) / float64(max(tasks, 1))
	}
	return nil
}

// simCounters reports the accelerator and runtime counters of the
// reference round, per simulated task. They are exact: a change that
// only speeds the simulator up must not move them.
func (r *runner) simCounters(m metrics) {
	var s picos.Stats
	var tasks, maxVM int
	var lockBusy, nanosSpan uint64
	for i, results := range r.refRes {
		for j, res := range results {
			if res == nil {
				continue
			}
			if res.Stats != nil {
				tasks += r.inputs[i].tasks[j]
				s.DMConflicts += res.Stats.DMConflicts
				s.DMConflictStallCycles += res.Stats.DMConflictStallCycles
				s.VMStallCycles += res.Stats.VMStallCycles
				s.GWBlockedCycles += res.Stats.GWBlockedCycles
				s.WakesRouted += res.Stats.WakesRouted
				maxVM = max(maxVM, res.Stats.MaxVMLive)
			}
			if r.w.ops[i].specs[j].Engine == "nanos" {
				lockBusy += res.LockBusy
				nanosSpan += res.Makespan
			}
		}
	}
	per := func(v uint64) float64 { return float64(v) / float64(max(tasks, 1)) }
	m.set("sim.dm_conflicts", per(s.DMConflicts), 1)
	m.set("sim.dm_conflict_stall_cycles", per(s.DMConflictStallCycles), 1)
	m.set("sim.vm_stall_cycles", per(s.VMStallCycles), 1)
	m.set("sim.gw_blocked_cycles", per(s.GWBlockedCycles), 1)
	m.set("sim.wakes_routed", per(s.WakesRouted), 1)
	m.set("sim.max_vm_live", float64(maxVM), 1)
	m.set("sim.lock_busy_share", float64(lockBusy)/float64(max(nanosSpan, 1)), 1)
}

// layerInput is one distinct workload of the run, built whole, with the
// DM design its first op asks for.
type layerInput struct {
	key    traceKey
	tr     *trace.Trace
	design string
}

// distinctInputs builds each distinct workload of the run whole through
// sim.BuildWorkload. Streamed pattern workloads are generated whole here
// only; the rounds never materialize them.
func (r *runner) distinctInputs() ([]layerInput, error) {
	var out []layerInput
	seen := map[traceKey]bool{}
	for _, o := range r.w.ops {
		for _, spec := range o.specs {
			k := keyOf(spec)
			if seen[k] {
				continue
			}
			seen[k] = true
			tr, err := sim.BuildWorkload(spec)
			if err != nil {
				return nil, err
			}
			design := ""
			if spec.Engine != "nanos" && spec.Engine != "perfect" {
				design = spec.Design
			}
			out = append(out, layerInput{k, tr, design})
		}
	}
	return out, nil
}

// driverReps repeats each timed driver; the median rep is reported.
const driverReps = 3

// medianNs runs f driverReps times and returns the median duration.
func medianNs(f func() error) (float64, error) {
	ds := make([]float64, driverReps)
	for i := range ds {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds[i] = float64(time.Since(t0))
	}
	return median(ds), nil
}

// drivers runs the benchmark-owned layer drivers on the run's inputs. A
// driver that fails counts as a failed attempt; the others still run.
func (r *runner) drivers(l *layers) {
	m := l.Metrics
	buildTasks := 0
	for _, in := range r.inputs {
		buildTasks += in.total
	}
	buildNs := make([]float64, len(r.buildNs))
	for i, ns := range r.buildNs {
		buildNs[i] = float64(ns)
	}
	m.set("source.build_ns_per_task", median(buildNs)/float64(max(buildTasks, 1)), len(buildNs))

	ins, err := r.distinctInputs()
	r.attempted++
	if err != nil {
		r.fail("layer inputs", err)
	}
	tasks := 0
	for _, in := range ins {
		tasks += len(in.tr.Tasks)
	}
	perTask := func(ns float64) float64 { return ns / float64(max(tasks, 1)) }
	try := func(what string, f func() error) {
		r.attempted++
		if err := f(); err != nil {
			r.fail(what, err)
		}
	}

	try("source drain", func() error {
		ns, err := medianNs(func() error { return r.drainSources(ins) })
		m.set("source.next_ns_per_task", perTask(ns), driverReps)
		return err
	})
	graphs := make([]*taskgraph.Graph, len(ins))
	ns, _ := medianNs(func() error {
		for i, in := range ins {
			graphs[i] = taskgraph.Build(in.tr)
		}
		return nil
	})
	m.set("taskgraph.build_ns_per_task", perTask(ns), driverReps)
	try("picos driver", func() error { return picosLayer(l, ins, graphs) })
	try("utilization", func() error { return utilization(m, ins) })
	for _, pol := range []struct {
		name, classes, policy string
		steal                 bool
	}{
		{"fifo", "", "fifo", false},
		{"locality_steal", "6xfast+6xslow:2.0", "locality", true},
	} {
		try("sched driver "+pol.name, func() error {
			ns, err := medianNs(func() error { return drivePool(ins, pol.classes, pol.policy, pol.steal) })
			m.set("sched.enqueue_grant_ns."+pol.name, perTask(ns), driverReps)
			return err
		})
	}
	try("sweep efficiency", func() error {
		eff, err := r.sweepEfficiency(ins)
		m.set("sweep.parallel_efficiency", eff, 1)
		return err
	})
}

// drainSources pulls every task of the run's inputs through trace.Source:
// a streamed op's own generator, a materialized workload's adapter.
func (r *runner) drainSources(ins []layerInput) error {
	streamed := map[traceKey]bool{}
	for i, o := range r.w.ops {
		if src := r.inputs[i].src; src != nil {
			streamed[keyOf(o.specs[0])] = true
			if err := drain(src); err != nil {
				return err
			}
		}
	}
	for _, in := range ins {
		if !streamed[in.key] {
			if err := drain(trace.FromTrace(in.tr)); err != nil {
				return err
			}
		}
	}
	return nil
}

func drain(src trace.Source) error {
	if err := src.Rewind(); err != nil {
		return err
	}
	for _, ok := src.Next(); ok; _, ok = src.Next() {
	}
	return trace.SourceErr(src)
}

// The HW-only driver's timed calls.
const (
	callSubmit = iota
	callRunToReady
	callNextEvent
	callPopReady
	callNotifyFinish
	callReset
	numCalls
)

var callNames = [numCalls]string{"submit", "run_to_ready", "next_event", "pop_ready", "notify_finish", "reset"}

// callClock times the driver's calls to picos; a nil clock times nothing.
type callClock struct {
	n  [numCalls]int64
	ns [numCalls]int64
}

func (c *callClock) now() time.Time {
	if c == nil {
		return time.Time{}
	}
	return time.Now()
}

func (c *callClock) since(k int, t time.Time) {
	if c == nil {
		return
	}
	c.n[k]++
	c.ns[k] += int64(time.Since(t))
}

// driverWorkers is the HW-only driver's worker count, the paper's twelve.
const driverWorkers = 12

// drivePicos runs a trace through the accelerator alone, the way the
// HW-only platform does: preload every task, then hand ready tasks to
// idle workers, advance to the next completion and notify finishes. It
// returns the schedule and fails on a wedge or a leak.
func drivePicos(p *picos.Picos, cfg picos.Config, tr *trace.Trace, c *callClock) (start, finish []uint64, err error) {
	t := c.now()
	if err := p.Reset(cfg); err != nil {
		return nil, nil, err
	}
	c.since(callReset, t)
	for i := range tr.Tasks {
		t := c.now()
		err := p.Submit(uint32(i), tr.Tasks[i].Deps)
		c.since(callSubmit, t)
		if err != nil {
			return nil, nil, err
		}
	}
	n := len(tr.Tasks)
	start, finish = make([]uint64, n), make([]uint64, n)
	var busy sched.DueHeap
	var idle sched.IdleHeap
	for w := 0; w < driverWorkers; w++ {
		idle.Push(w)
	}
	running := make([]picos.ReadyTask, driverWorkers)
	for done := 0; done < n; {
		now := p.Now()
		for len(busy) > 0 && busy[0].Until <= now {
			d := busy.Pop()
			rt := running[d.Idx]
			finish[rt.ID] = d.Until
			t := c.now()
			p.NotifyFinish(rt.Handle)
			c.since(callNotifyFinish, t)
			idle.Push(d.Idx)
			done++
		}
		for len(idle) > 0 {
			t := c.now()
			rt, ok := p.PopReady()
			c.since(callPopReady, t)
			if !ok {
				break
			}
			w := idle.Pop()
			running[w] = rt
			start[rt.ID] = now
			busy.Push(sched.Due{Until: now + tr.Tasks[rt.ID].Duration, Idx: w})
		}
		if done == n {
			break
		}
		// The next platform event: a completion, or the dispatch
		// candidate becoming visible while a worker is idle.
		next, ok := uint64(0), false
		consider := func(at uint64) {
			at = max(at, now+1)
			if !ok || at < next {
				next, ok = at, true
			}
		}
		if len(busy) > 0 {
			consider(busy[0].Until)
		}
		if len(idle) > 0 {
			if at, rok := p.ReadyAt(); rok {
				consider(at)
			}
		}
		t := c.now()
		_, internal := p.NextEvent()
		c.since(callNextEvent, t)
		if !ok && !internal {
			return nil, nil, fmt.Errorf("%s wedged at cycle %d with %d of %d tasks done", tr.Name, now, done, n)
		}
		if len(idle) > 0 && internal {
			target := ^uint64(0)
			if ok {
				target = next
			}
			t := c.now()
			p.RunToReady(target)
			c.since(callRunToReady, t)
			if p.Now() > now {
				continue
			}
		}
		p.RunTo(next)
	}
	p.RunOut()
	if err := p.Drained(); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", tr.Name, err)
	}
	return start, finish, nil
}

// picosLayer runs the HW-only driver on every input twice: untimed per
// call for the driver's own cost, then with every call timed. Each
// schedule must pass the dependence oracle.
func picosLayer(l *layers, ins []layerInput, graphs []*taskgraph.Graph) error {
	m := l.Metrics
	p, err := picos.New(picos.DefaultConfig())
	if err != nil {
		return err
	}
	cfgs := make([]picos.Config, len(ins))
	tasks := 0
	for i, in := range ins {
		cfgs[i] = picos.DefaultConfig()
		if cfgs[i].Design, err = picos.ParseDesign(in.design); err != nil {
			return err
		}
		tasks += len(in.tr.Tasks)
	}
	starts, finishes := make([][]uint64, len(ins)), make([][]uint64, len(ins))
	t0 := time.Now()
	for i, in := range ins {
		if starts[i], finishes[i], err = drivePicos(p, cfgs[i], in.tr, nil); err != nil {
			return err
		}
	}
	m.set("picos.driver_ns_per_task", float64(time.Since(t0))/float64(max(tasks, 1)), len(ins))

	var c callClock
	for i, in := range ins {
		if _, _, err := drivePicos(p, cfgs[i], in.tr, &c); err != nil {
			return err
		}
	}
	for k := 0; k < numCalls; k++ {
		m.set("picos."+callNames[k]+"_ns", float64(c.ns[k])/float64(max(c.n[k], 1)), int(c.n[k]))
		l.PicosCalls[callNames[k]] = c.n[k]
	}
	m.set("picos.run_to_ready_calls_per_task", float64(c.n[callRunToReady])/float64(max(tasks, 1)), int(c.n[callRunToReady]))
	l.ClockNs = clockOverhead()

	ns, err := medianNs(func() error {
		for i := range ins {
			if err := graphs[i].CheckSchedule(starts[i], finishes[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("taskgraph.verify_ns_per_task", ns/float64(max(tasks, 1)), driverReps)
	return nil
}

// clockOverhead is the cost of one timed call's clock reads, which every
// picos.*_ns value includes.
func clockOverhead() float64 {
	const n = 10000
	var c callClock
	for i := 0; i < n; i++ {
		c.since(0, c.now())
	}
	return float64(c.ns[0]) / n
}

// utilization runs every input on the HW-only platform (hil.Run) and
// reports per-unit busy shares of the makespan. The platform's makespan
// must match the sim engine's on the same trace.
func utilization(m metrics, ins []layerInput) error {
	var gw, trs, dct, ts, routed, span float64
	tasks := 0
	for _, in := range ins {
		cfg := hil.DefaultConfig()
		var err error
		if cfg.Picos.Design, err = picos.ParseDesign(in.design); err != nil {
			return err
		}
		hr, err := hil.Run(in.tr, cfg)
		if err != nil {
			return err
		}
		sr, err := sim.RunTrace(in.tr, sim.Spec{Engine: "picos-hw", Design: in.design})
		if err != nil {
			return err
		}
		if hr.Makespan != sr.Makespan {
			return fmt.Errorf("%s: hil makespan %d, sim makespan %d", in.tr.Name, hr.Makespan, sr.Makespan)
		}
		mk := float64(hr.Makespan)
		gw += float64(hr.Busy.GW)
		trs += mean(hr.Busy.TRS)
		dct += mean(hr.Busy.DCT)
		ts += float64(hr.Busy.TS)
		routed += float64(hr.Busy.Arb)
		span += mk
		tasks += len(in.tr.Tasks)
	}
	span = max(span, 1)
	m.set("picos.util.gw", gw/span, len(ins))
	m.set("picos.util.trs", trs/span, len(ins))
	m.set("picos.util.dct", dct/span, len(ins))
	m.set("picos.util.ts", ts/span, len(ins))
	m.set("picos.arb.routed_per_task", routed/float64(max(tasks, 1)), len(ins))
	return nil
}

func mean(xs []uint64) float64 {
	s := 0.0
	for _, x := range xs {
		s += float64(x)
	}
	return s / float64(max(len(xs), 1))
}

// drivePool pushes every input's tasks through a sched.Pool of twelve
// workers in ready waves of poolWave: enqueue a wave, then grant until
// the queue drains, parking every granted worker between grant rounds.
func drivePool(ins []layerInput, classes, policy string, steal bool) error {
	const poolWave = 32
	cls, err := sched.Parse(classes)
	if err != nil {
		return err
	}
	if len(cls) == 0 {
		cls = sched.Single(driverWorkers)
	}
	pol, err := sched.ParsePolicy(policy)
	if err != nil {
		return err
	}
	var pool sched.Pool[uint32]
	var granted []int
	for _, in := range ins {
		pool.Reset(cls, pol, steal, in.tr.Kinds, nil)
		for w := 0; w < pool.Workers(); w++ {
			pool.Park(w)
		}
		for lo := 0; lo < len(in.tr.Tasks); lo += poolWave {
			for i := lo; i < min(lo+poolWave, len(in.tr.Tasks)); i++ {
				pool.Enqueue(uint32(i), in.tr.Tasks[i].Kind, uint32(i))
			}
			for pool.Len() > 0 {
				for w, _, ok := pool.Grant(); ok; w, _, ok = pool.Grant() {
					granted = append(granted, w)
				}
				if len(granted) == 0 {
					return fmt.Errorf("sched driver: %d tasks of %s cannot be granted", pool.Len(), in.tr.Name)
				}
				for _, w := range granted {
					pool.Park(w)
				}
				granted = granted[:0]
			}
		}
	}
	return nil
}

// sweepEfficiency compares the run's specs executed one by one with
// sim.RunTrace against the same specs in one sim.Sweep on two
// goroutines: sequential time over twice the sweep's wall time.
func (r *runner) sweepEfficiency(ins []layerInput) (float64, error) {
	byKey := map[traceKey]*trace.Trace{}
	for _, in := range ins {
		byKey[in.key] = in.tr
	}
	var specs []sim.Spec
	var seq time.Duration
	for _, o := range r.w.ops {
		for _, spec := range o.specs {
			specs = append(specs, spec)
			t0 := time.Now()
			if _, err := sim.RunTrace(byKey[keyOf(spec)], spec); err != nil {
				return 0, err
			}
			seq += time.Since(t0)
		}
	}
	runtime.GC()
	t0 := time.Now()
	for _, it := range sim.Sweep(specs, sweepParallelism) {
		if it.Err != "" {
			return 0, fmt.Errorf("sweep: %s", it.Err)
		}
	}
	return seq.Seconds() / (sweepParallelism * time.Since(t0).Seconds()), nil
}
