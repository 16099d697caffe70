package patterns

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/detrand"
	"repro/internal/picos"
	"repro/internal/trace"
)

// Generate returns a lazy trace.Source over the pattern, the one
// generator of every family. The task at (t, i) carries an inout
// dependence on point i's step-t field buffer plus in dependences on the
// step-(t-1) field buffers of the points its family names — so with the
// default two fields, reads bind to the previous step's writes exactly
// as in task-bench's double-buffered execution, and with fields=1 they
// bind in-place, Gauss-Seidel style. Inputs that alias the task's own
// buffer or each other are deduplicated, and the per-task dependence
// list is truncated at the hardware's trace.MaxDeps.
//
// Tasks are produced one at a time in step-major creation order (the
// order the task-bench OmpSs port issues them), so the grid is never
// held in memory — a width*steps grid of millions of tasks streams in
// O(width) state. task-bench generates its grids the same way: the
// dependence functions are closed-form in (t, i), so nothing about a
// timestep needs the materialized previous one. trace.Materialize folds
// the stream into a whole trace; TestTraceGolden pins those bytes.
//
// retain bounds the dagfile family's node-retention window (<= 0:
// unbounded, and the graph file is parsed whole by ParseDAG); the grid
// families ignore it — their per-task state is already bounded by the
// row width.
func Generate(p Params, retain int) (trace.Source, error) {
	fam, ok := families[p.Family]
	if !ok {
		return nil, fmt.Errorf("patterns: unknown family %q (have %s)", p.Family, strings.Join(Families(), ", "))
	}
	if p.Family == "dagfile" {
		return streamDAGFile(p, retain)
	}
	stride := layoutStrides[p.Layout]
	if stride == 0 {
		return nil, fmt.Errorf("patterns: unknown layout %q (have malloc, aligned, spread)", p.Layout)
	}
	if p.Fields < 1 {
		p.Fields = DefaultFields
	}
	if p.Height < 1 {
		p.Height = 1
	}
	if p.Regions < 1 {
		p.Regions = 1
	}
	src := &gridSource{
		p:      p,
		fam:    fam,
		stride: stride,
		points: p.points(),
		name:   "pattern-" + p.Name(),
		kinds:  []string{p.Family},
	}
	if p.Layout == "shard" && !fam.freshAddr {
		// The slot table of the chaining families is O(points*fields) —
		// bounded by the row width, not the task count — so it is the one
		// piece of shard-layout state worth precomputing.
		nbuf := src.points * p.Fields
		addrs := make([]uint64, nbuf)
		next := uint64(patternBase)
		for s := 0; s < nbuf; s++ {
			target := (s / p.Fields) * p.Shards / src.points
			for picos.Shard(picos.ShardXorFold, next, p.Shards) != target {
				next += stride
			}
			addrs[s] = next
			next += stride
		}
		src.addrs = addrs
	}
	src.reset()
	return src, nil
}

// gridSource streams one pattern grid in step-major order with O(width)
// retained state. The only cursor beyond (t, i) is the shard layout's
// sequential probe position for fresh-address families, whose slot
// sequence t*points+i is exactly the emission order.
type gridSource struct {
	p      Params
	fam    family
	stride uint64
	points int
	name   string
	kinds  []string
	addrs  []uint64 // shard layout, chaining families: full slot table

	t, i int
	id   uint32
	// Shard-layout probe cursor for fresh-address families.
	slot     int
	nextAddr uint64
}

func (s *gridSource) Name() string         { return s.name }
func (s *gridSource) Kinds() []string      { return s.kinds }
func (s *gridSource) SerialCycles() uint64 { return 0 }
func (s *gridSource) RefSeqCycles() uint64 { return 0 }

func (s *gridSource) Rewind() error { s.reset(); return nil }

func (s *gridSource) reset() {
	s.t, s.i, s.id = 0, 0, 0
	s.slot, s.nextAddr = 0, patternBase
}

// buf returns the step-t field buffer of point i.
func (s *gridSource) buf(i, t int) uint64 {
	if s.addrs != nil {
		return s.addrs[i*s.p.Fields+t%s.p.Fields]
	}
	return patternBase + uint64(i*s.p.Fields+t%s.p.Fields)*s.stride
}

// freshShardAddr advances the sequential probe cursor to the given slot
// and returns its address. Fresh-address tasks consume slots in strictly
// increasing order (slot = t*points+i in emission order), so the cursor
// only ever moves forward — the slots of hole points are probed and
// discarded, so every point keeps its shard.
func (s *gridSource) freshShardAddr(slot int) uint64 {
	var addr uint64
	for ; s.slot <= slot; s.slot++ {
		target := (s.slot % s.points) * s.p.Shards / s.points
		for picos.Shard(picos.ShardXorFold, s.nextAddr, s.p.Shards) != target {
			s.nextAddr += s.stride
		}
		addr = s.nextAddr
		s.nextAddr += s.stride
	}
	return addr
}

func (s *gridSource) Next() (trace.Task, bool) {
	p := s.p
	for {
		if s.i >= s.points {
			s.i = 0
			s.t++
		}
		if s.t >= p.Steps {
			return trace.Task{}, false
		}
		t, i := s.t, s.i
		s.i++
		if p.hole(i) {
			continue
		}
		id := s.id
		s.id++

		own := s.buf(i, t)
		if s.fam.freshAddr {
			if p.Layout == "shard" {
				own = s.freshShardAddr(t*s.points + i)
			} else {
				own = patternBase + uint64(t*s.points+i)*s.stride
			}
		}
		deps := make([]trace.Dep, 0, trace.MaxDeps)
		deps = s.addRegions(deps, own, trace.InOut)
		if t > 0 {
			for _, j := range s.fam.inputs(p, t, i) {
				if j < 0 || j >= s.points || p.hole(j) {
					continue
				}
				deps = s.addRegions(deps, s.buf(j, t-1), trace.In)
			}
		}
		dur := p.Len
		if p.Jitter > 0 {
			dur = detrand.Jitter(p.Len, p.Seed^uint64(id)<<1, p.Jitter)
		}
		return trace.Task{ID: id, Deps: deps, Duration: dur, Kind: 1}, true
	}
}

// addRegions appends one dependence per address region of a point
// buffer, capped at the hardware's per-task limit. An address the task
// already names keeps its first direction: the list holds at most
// trace.MaxDeps entries, so scanning it is the cheapest dedup.
func (s *gridSource) addRegions(deps []trace.Dep, base uint64, dir trace.Direction) []trace.Dep {
	for r := 0; r < s.p.Regions && len(deps) < trace.MaxDeps; r++ {
		a := base + uint64(r)*regionStride
		if !slices.ContainsFunc(deps, func(d trace.Dep) bool { return d.Addr == a }) {
			deps = append(deps, trace.Dep{Addr: a, Dir: dir})
		}
	}
	return deps
}
