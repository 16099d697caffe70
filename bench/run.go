package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"slices"
	"time"

	"repro/internal/fidelity"
	"repro/internal/sim"
	"repro/internal/taskgraph"
	"repro/internal/trace"

	_ "repro/internal/engines"
)

// paperCells is the number of paper-vs-model cells fidelity.Compare
// judges with the Figure 11 sweep included; all of them must match.
const paperCells = 159

// minBeyond is how many samples must rank above a reported percentile.
const minBeyond = 10

// config fixes how much work one run does. The command line sets the
// benchmark's values; tests shrink them.
type config struct {
	seed      uint64
	seconds   float64 // wall-clock length of the timed phase
	minRounds int     // timed rounds required even past seconds
	setupReps int     // setup repetitions; setup_s is their median
}

// input is what setup builds for one op: the materialized trace and its
// dependence graph for each spec, or the streaming source of a
// bounded-window op, plus each spec's task count.
type input struct {
	traces []*trace.Trace
	graphs []*taskgraph.Graph
	src    trace.Source
	tasks  []int
	total  int
	err    error
}

// outcome is one execution of an op: a result or an error per spec.
type outcome struct {
	results []*sim.Result
	errs    []error
}

// phase accumulates the timed rounds of one measurement phase. Round
// times are scaled to the reference host by the calibration runs before
// and after each round; the raw sum and the calibration times are kept
// for the report.
type phase struct {
	rounds  int
	ns      float64 // summed op time, scaled
	rawNs   int64
	calibNs []float64
	tasks   int
	allocs  []float64 // per-round allocations per task
	samples []float64 // per-round ns per task, scaled
}

func (p *phase) tasksPerS() float64 { return float64(p.tasks) / (p.ns / 1e9) }

// runner holds one workload's inputs and everything its rounds check
// against: the first round's digests and results are the reference every
// later round must reproduce.
type runner struct {
	w      workload
	cfg    config
	rng    *rand.Rand
	inputs []input

	ref    [][32]byte
	refRes [][]*sim.Result

	attempted, failed int
	fidelityOK        int
	setupS            []float64
	buildNs           []int64 // input build time of each setup rep
}

func newRunner(w workload, cfg config) *runner {
	return &runner{w: w, cfg: cfg, rng: rand.New(rand.NewPCG(cfg.seed, 0x5eed))}
}

// fail records one failed attempt and reports why on standard error.
func (r *runner) fail(what string, err error) {
	r.failed++
	fmt.Fprintf(os.Stderr, "bench: %s: %s: %v\n", r.w.name, what, err)
}

// setup builds every op's inputs and runs one untimed warm-up round,
// cfg.setupReps times, each from a collected heap. The first rep's round
// is the reference round. Each rep's time is scaled by calibration runs
// just before and after it, each after a forced collection.
func (r *runner) setup() {
	for rep := 0; rep < r.cfg.setupReps; rep++ {
		r.inputs = nil
		runtime.GC()
		before := calibrate()
		t0 := time.Now()
		r.inputs = make([]input, len(r.w.ops))
		for i, o := range r.w.ops {
			r.inputs[i] = buildInput(o)
		}
		r.buildNs = append(r.buildNs, int64(time.Since(t0)))
		r.round(nil)
		d := time.Since(t0)
		runtime.GC()
		r.setupS = append(r.setupS, d.Seconds()*scale(before, calibrate()))
	}
}

// checkFidelity runs the whole paper comparison where the workload asks
// for it. It runs after the measurement, so that its transient heap
// (Table I builds every application down to h264dec/1) sets neither the
// peak RSS nor the set-up time.
func (r *runner) checkFidelity() {
	if !r.w.fidelity {
		return
	}
	r.attempted++
	rep, err := fidelity.Compare(fidelity.Options{})
	if err != nil {
		r.fail("fidelity", err)
		return
	}
	match, near, diverge := rep.Counts()
	r.fidelityOK = match
	if match != paperCells || near != 0 || diverge != 0 {
		r.fail("fidelity", fmt.Errorf("%d match, %d near, %d diverge; want %d match", match, near, diverge, paperCells))
	}
}

// buildInput builds one op's inputs through the public workload calls.
// A streamed op keeps its lazy source (counting its tasks once); every
// other spec is built whole, with the dependence graph its schedule is
// checked against. Sweep specs sharing a workload share one build.
func buildInput(o op) input {
	in := input{tasks: make([]int, len(o.specs))}
	if !o.sweep && o.specs[0].Window > 0 {
		src, err := sim.BuildWorkloadSource(o.specs[0])
		if err != nil {
			in.err = err
			return in
		}
		for _, ok := src.Next(); ok; _, ok = src.Next() {
			in.tasks[0]++
		}
		in.src, in.total = src, in.tasks[0]
		in.err = src.Rewind()
		return in
	}
	type built struct {
		tr *trace.Trace
		g  *taskgraph.Graph
	}
	cache := map[traceKey]built{}
	in.traces = make([]*trace.Trace, len(o.specs))
	in.graphs = make([]*taskgraph.Graph, len(o.specs))
	for j, spec := range o.specs {
		k := keyOf(spec)
		b, ok := cache[k]
		if !ok {
			tr, err := sim.BuildWorkload(spec)
			if err != nil {
				in.err = err
				return in
			}
			b = built{tr, taskgraph.Build(tr)}
			cache[k] = b
		}
		in.traces[j], in.graphs[j] = b.tr, b.g
		in.tasks[j] = len(b.tr.Tasks)
		in.total += in.tasks[j]
	}
	return in
}

// traceKey identifies a built workload the way sim.Sweep shares them.
type traceKey struct {
	workload       string
	problem, block int
}

func keyOf(s sim.Spec) traceKey { return traceKey{s.Workload, s.Problem, s.Block} }

// execOp runs one op through the public simulation calls.
func execOp(o op, in *input) outcome {
	out := outcome{results: make([]*sim.Result, len(o.specs)), errs: make([]error, len(o.specs))}
	switch {
	case o.sweep:
		for _, it := range sim.Sweep(o.specs, sweepParallelism) {
			out.results[it.Index] = it.Result
			if it.Err != "" {
				out.errs[it.Index] = fmt.Errorf("%s", it.Err)
			}
		}
	case in.src != nil:
		out.results[0], out.errs[0] = sim.RunSource(in.src, o.specs[0])
	default:
		out.results[0], out.errs[0] = sim.RunTrace(in.traces[0], o.specs[0])
	}
	return out
}

// callName names the public call execOp makes for an op, for spans.
func callName(o op, in *input) string {
	switch {
	case o.sweep:
		return "sim.Sweep"
	case in.src != nil:
		return "sim.RunSource"
	}
	return "sim.RunTrace"
}

// round runs every op once in a seeded order and returns the summed time
// and allocations of the simulation calls and the tasks they simulated.
// Only the simulation call of each op is timed; checks run outside it.
func (r *runner) round(t *tracer) (ns int64, allocs uint64, tasks int) {
	var ms runtime.MemStats
	for _, i := range r.rng.Perm(len(r.w.ops)) {
		o, in := r.w.ops[i], &r.inputs[i]
		r.attempted++
		if in.err != nil {
			r.fail(o.name, in.err)
			continue
		}
		runtime.ReadMemStats(&ms)
		allocs0 := ms.Mallocs
		opSpan := t.begin(o.name, -1)
		callSpan := t.begin(callName(o, in), opSpan)
		t0 := time.Now()
		out := execOp(o, in)
		d := int64(time.Since(t0))
		t.end(callSpan)
		t.end(opSpan)
		runtime.ReadMemStats(&ms)
		opAllocs := ms.Mallocs - allocs0
		t.account(o, in.total, d, opAllocs)
		ns += d
		allocs += opAllocs
		tasks += in.total
		r.check(i, out)
	}
	return ns, allocs, tasks
}

// check validates one execution and compares its digest with the
// reference round's. The first execution of an op becomes the reference
// after its schedules pass the dependence oracle.
func (r *runner) check(i int, out outcome) {
	o, in := r.w.ops[i], &r.inputs[i]
	first := r.ref == nil || r.refRes[i] == nil
	for j, res := range out.results {
		if err := validate(res, out.errs[j], in.tasks[j]); err != nil {
			r.fail(fmt.Sprintf("%s [%d]", o.name, j), err)
			return
		}
		if first && res.Start != nil {
			if err := in.graphs[j].CheckSchedule(res.Start, res.Finish); err != nil {
				r.fail(fmt.Sprintf("%s [%d] schedule", o.name, j), err)
				return
			}
		}
	}
	d := digest(out.results)
	if first {
		if r.ref == nil {
			r.ref = make([][32]byte, len(r.w.ops))
			r.refRes = make([][]*sim.Result, len(r.w.ops))
		}
		r.ref[i], r.refRes[i] = d, out.results
		return
	}
	if d != r.ref[i] {
		r.fail(o.name, fmt.Errorf("result digest %x differs from the reference round's %x", d[:8], r.ref[i][:8]))
	}
}

// validate checks one result: no error, no wedge or timeout, no lost or
// refused task, every task completed.
func validate(res *sim.Result, err error, tasks int) error {
	switch {
	case err != nil:
		return err
	case res == nil:
		return fmt.Errorf("no result")
	case res.Wedged:
		return fmt.Errorf("wedged at cycle %d", res.WedgedAt)
	case res.TimedOut:
		return fmt.Errorf("timed out")
	case res.LostTasks != 0 || res.RefusedTasks != 0:
		return fmt.Errorf("%d tasks lost, %d refused", res.LostTasks, res.RefusedTasks)
	case res.Stats != nil && res.Stats.TasksCompleted != uint64(tasks):
		return fmt.Errorf("%d of %d tasks completed", res.Stats.TasksCompleted, tasks)
	case res.Start != nil && len(res.Start) != tasks:
		return fmt.Errorf("schedule covers %d of %d tasks", len(res.Start), tasks)
	}
	return nil
}

// digest hashes the simulated fields of an op's results: makespan,
// baseline, first start, thrTask, wedged, the accelerator counters and
// the schedule. A change that only makes the simulator faster leaves it
// unchanged.
func digest(results []*sim.Result) [32]byte {
	h := sha256.New()
	for _, res := range results {
		writeResult(h, res)
	}
	var d [32]byte
	h.Sum(d[:0])
	return d
}

func writeResult(h hash.Hash, res *sim.Result) {
	var b []byte
	b = binary.LittleEndian.AppendUint64(b, res.Makespan)
	b = binary.LittleEndian.AppendUint64(b, res.Baseline)
	b = binary.LittleEndian.AppendUint64(b, res.FirstStart)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(res.ThrTask))
	if res.Wedged {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	h.Write(b)
	stats, _ := json.Marshal(res.Stats) // a struct of integers always marshals
	h.Write(stats)
	for _, xs := range [][]uint64{res.Start, res.Finish} {
		b = binary.LittleEndian.AppendUint64(b[:0], uint64(len(xs)))
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, x)
		}
		h.Write(b)
	}
}

// resultDigest combines the reference digests in op declaration order.
func (r *runner) resultDigest() string {
	h := sha256.New()
	for _, d := range r.ref {
		h.Write(d[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// timed runs rounds until both the wall-clock budget and the minimum
// round count are spent. Every round starts from a collected heap, so
// that what it allocates and collects does not depend on where the
// previous round left the collector. The calibration kernel runs right
// after each collection, and a round's time is scaled by the kernel runs
// just before and after it.
func (r *runner) timed(seconds float64, minRounds int, t *tracer) phase {
	var ph phase
	runtime.GC()
	calib := calibrate()
	start := time.Now()
	for ph.rounds < minRounds || time.Since(start).Seconds() < seconds {
		ns, allocs, tasks := r.round(t)
		if tasks == 0 {
			break // every op failed to build: nothing to time
		}
		runtime.GC()
		next := calibrate()
		scaled := float64(ns) * scale(calib, next)
		ph.calibNs = append(ph.calibNs, float64(next))
		calib = next
		ph.rounds++
		ph.ns += scaled
		ph.rawNs += ns
		ph.tasks += tasks
		ph.allocs = append(ph.allocs, float64(allocs)/float64(tasks))
		ph.samples = append(ph.samples, scaled/float64(tasks))
	}
	return ph
}

// percentile returns the q-quantile (nearest rank) of xs, and false
// unless at least minBeyond samples rank above it.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	rank := int(math.Ceil(q * float64(n)))
	if n == 0 || n-rank < minBeyond {
		return 0, false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[max(rank, 1)-1], true
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// speedupGeomean is the geometric mean simulated speedup over every
// reference result.
func (r *runner) speedupGeomean() (float64, int) {
	sum, n := 0.0, 0
	for _, results := range r.refRes {
		for _, res := range results {
			if res != nil && res.Speedup > 0 {
				sum += math.Log(res.Speedup)
				n++
			}
		}
	}
	if n == 0 {
		return 0, 0
	}
	return math.Exp(sum / float64(n)), n
}
