// Package patterns generates parameterized dependence-pattern workload
// families in the style of task-bench (Slaughter et al., "Task Bench: A
// Parameterized Benchmark for Evaluating Parallel Runtime Performance"),
// whose OmpSs port drives exactly the runtime this repository models. A
// pattern is a width x steps grid of tasks: at timestep t, point i runs
// one task that owns the point's buffer (an inout dependence, which
// chains the point's versions across steps the way the OmpSs port's
// tile_out works) and reads the previous step's buffers of the points
// the family's dependence function names (in dependences). Sweeping the
// families against the three Dependence Memory designs probes the Picos
// dependence manager across the whole dependence-pattern space — far
// beyond the six fixed applications and seven capacity cases the paper
// measures.
//
// Families are parameterized through a flat key=value grammar that the
// sim workload registry exposes under the "pattern:" prefix:
//
//	pattern:stencil_1d?width=64&steps=100&len=1000
//	pattern:random_nearest?width=32&steps=50&k=5&seed=7
//	pattern:all_to_all?width=8&steps=20&layout=aligned
//
// so every engine, sweep grid, CLI and experiment picks the families up
// with no further wiring.
package patterns

import (
	"fmt"
	"net/url"
	"sort"
	"strconv"
	"strings"

	"repro/internal/detrand"
	"repro/internal/trace"
)

// Defaults for unspecified parameters: small enough that a default
// pattern runs in milliseconds on every engine, including the
// cycle-stepped reference loop.
const (
	DefaultWidth  = 16
	DefaultSteps  = 10
	DefaultLen    = 1000
	DefaultK      = 3
	DefaultSeed   = 1
	DefaultLayout = "malloc"
	// DefaultHeight is the y-extent of the 2-D families (stencil_2d,
	// wavefront): a width x height grid of points per timestep. 1-D
	// families always have height 1.
	DefaultHeight = 8
	// DefaultShards is the fabric shard count the shard layout aligns
	// for when no shards= parameter is given — the smallest partitioned
	// fabric (NumDCT=2).
	DefaultShards = 2
	// DefaultFields is the buffer multiplicity per point: 2 is
	// task-bench's num_fields default (Jacobi-style double buffering, so
	// a step's reads bind to the previous step's writes). fields=1 is
	// the in-place Gauss-Seidel variant: reads of lower-indexed points
	// bind within the step, and every point's buffer accumulates one VM
	// version per step — the heavier stress on the DCT's version chains.
	DefaultFields = 2
)

// Families whose dependence sets grow with the width (dom, all_to_all)
// are truncated deterministically so no task exceeds the hardware's
// 15-dependence limit (trace.MaxDeps): their inputs functions emit at
// most MaxDeps candidates and Generate's per-task cap keeps the owner
// dependence plus the first 14 distinct reads.

// Params is a fully-resolved pattern specification.
type Params struct {
	// Family is the dependence-pattern family name; see Families().
	Family string
	// Width is the number of grid points per timestep.
	Width int
	// Steps is the number of timesteps.
	Steps int
	// Len is the base task duration in cycles.
	Len uint64
	// Jitter perturbs task durations by up to ±Jitter percent,
	// deterministically (0: constant durations).
	Jitter int
	// K is the dependence-count knob of the nearest, spread and
	// random_nearest families.
	K int
	// Seed drives the random_nearest family and the duration jitter.
	Seed uint64
	// Fields is the number of buffers each point cycles through across
	// steps (task-bench's num_fields); see DefaultFields.
	Fields int
	// Height is the y-extent of the 2-D families: each timestep holds
	// Width*Height points, point i sitting at (i%Width, i/Width). 1 for
	// the 1-D families (which reject the parameter).
	Height int
	// Gaps carves deterministic holes into the grid: every Gaps-th point
	// (i%Gaps == Gaps-1) is inactive — it runs no tasks, and reads that
	// would name it are skipped — the task-bench "gaps" variant that
	// thins the dependence structure the way SparseLu's empty blocks do.
	// 0 or 1 means no holes.
	Gaps int
	// Regions gives every task Regions address regions: each point owns
	// one buffer per region, far apart in the address space (different
	// DM regions), and a task carries an inout dependence on every
	// region of its point plus in dependences on every region of its
	// input points — the h264dec-deblock shape where one task touches
	// the Y/U/V planes of its own and its neighbors' macroblocks.
	// Default 1.
	Regions int
	// Path is the graph file of the dagfile family, which replays an
	// arbitrary DAG (DOT or JSON, see ParseDAG) instead of generating a
	// grid. Only dagfile accepts (and requires) it.
	Path string
	// Layout selects the address layout of the point buffers:
	//
	//	malloc  - glibc-style 32KB heap blocks (stride 0x8010): buffers
	//	          cover 16 of the 64 direct-hash DM sets, like SparseLu's
	//	          individually allocated blocks (the default)
	//	aligned - power-of-two aligned blocks (stride 0x8000): every
	//	          buffer lands in ONE direct-hash set, the worst-case
	//	          clustering of Heat's contiguous allocation
	//	spread  - word-stride 65 (stride 260): buffers cover all 64 sets
	//	          under the direct hash, isolating pure capacity effects
	//	shard   - malloc-stride slots probed against the xor-fold fabric
	//	          hash so every buffer of point i lands on DCT shard
	//	          i*Shards/points: points fall into contiguous per-shard
	//	          blocks, so a local family's dependences stay on one
	//	          shard (only boundary tasks cross) — the best case for
	//	          a partitioned dependence fabric, where malloc/aligned/
	//	          spread scatter every task's chain across shards
	Layout string
	// Shards is the fabric shard count the shard layout aligns for
	// (matches the engine's NumDCT under the default xor-fold hash).
	// Only the shard layout accepts it; DefaultShards when unset.
	Shards int
}

// layoutStrides maps each layout to the byte distance between
// consecutive point buffers (for shard, between consecutive probe
// slots — the layout skips slots whose xor-fold shard is wrong).
var layoutStrides = map[string]uint64{
	"malloc":  0x8010,
	"aligned": 0x8000,
	"spread":  260,
	"shard":   0x8010,
}

// patternBase is the base address of pattern buffers, chosen away from
// the real benchmarks' arenas.
const patternBase = 0x70000000

// regionStride separates a point's address regions (Params.Regions):
// far enough apart that no layout's point footprint can reach the next
// region (the widest grid spans well under 2^40 bytes), with a low-bit
// offset so the direct-hash designs see region r of a point in a
// different DM set than region 0 (set delta 17 per region, coprime to
// the 64 sets).
const regionStride = uint64(1<<40) | 0x44

// family is one dependence-pattern family: inputs returns the previous-
// step points that (t,i) reads, for t >= 1. Implementations may return
// i itself or duplicates; Generate filters both.
type family struct {
	desc     string
	needPow2 bool
	// is2D marks the families whose per-step grid is Width x Height.
	is2D bool
	// freshAddr gives every task its own buffer (no cross-step
	// chaining): the fully-independent control family.
	freshAddr bool
	inputs    func(p Params, t, i int) []int
}

var families = map[string]family{
	"trivial": {
		desc:      "independent tasks, a fresh buffer per task (no dependences at all)",
		freshAddr: true,
		inputs:    func(Params, int, int) []int { return nil },
	},
	"no_comm": {
		desc:   "width independent chains: each point reads only its own previous-step value",
		inputs: func(p Params, t, i int) []int { return []int{i} },
	},
	"stencil_1d": {
		desc:   "each point reads itself and its left and right neighbors of the previous step",
		inputs: func(p Params, t, i int) []int { return []int{i - 1, i, i + 1} },
	},
	"stencil_1d_periodic": {
		desc: "stencil_1d with wrap-around at the row ends",
		inputs: func(p Params, t, i int) []int {
			w := p.Width
			return []int{(i - 1 + w) % w, i, (i + 1) % w}
		},
	},
	"nearest": {
		desc: "each point reads the k-wide window of previous-step points centered on it",
		inputs: func(p Params, t, i int) []int {
			lo := max(0, i-p.K/2)
			hi := min(p.Width-1, i+(p.K-1)/2)
			out := make([]int, 0, hi-lo+1)
			for j := lo; j <= hi; j++ {
				out = append(out, j)
			}
			return out
		},
	},
	"spread": {
		desc: "each point reads itself plus k-1 points strided uniformly across the previous step's row",
		inputs: func(p Params, t, i int) []int {
			w := p.Width
			stride := w / p.K
			if stride < 1 {
				stride = 1
			}
			n := min(p.K, w) // beyond w the rotation only repeats
			out := make([]int, 0, n)
			for j := 0; j < n; j++ {
				out = append(out, (i+j*stride)%w)
			}
			return out
		},
	},
	"random_nearest": {
		desc: "each point reads a seeded random subset of the 2k+1-wide window around it",
		inputs: func(p Params, t, i int) []int {
			lo, hi := max(0, i-p.K), min(p.Width-1, i+p.K)
			out := make([]int, 0, hi-lo+1)
			for j := lo; j <= hi; j++ {
				h := detrand.SplitMix64(p.Seed ^ uint64(t)<<40 ^ uint64(i)<<20 ^ uint64(j+p.K))
				if h&1 == 0 {
					out = append(out, j)
				}
			}
			return out
		},
	},
	"fft": {
		desc:     "butterfly exchanges: at step t each point reads itself and its partner i xor 2^((t-1) mod log2(width))",
		needPow2: true,
		inputs: func(p Params, t, i int) []int {
			if p.Width < 2 {
				return []int{i}
			}
			return []int{i, i ^ (1 << uint((t-1)%log2(p.Width)))}
		},
	},
	"tree": {
		desc: "binary fan-out from point 0: the active frontier doubles each step, each new point reading its parent",
		inputs: func(p Params, t, i int) []int {
			active := p.Width
			if t < 31 && 1<<uint(t) < p.Width {
				active = 1 << uint(t)
			}
			if i == 0 || i >= active {
				return nil
			}
			return []int{i / 2}
		},
	},
	"dom": {
		desc: "lower-triangular dominance: each point reads every lower-indexed previous-step point (truncated to the nearest 15)",
		inputs: func(p Params, t, i int) []int {
			lo := i + 1 - trace.MaxDeps
			if lo < 0 {
				lo = 0
			}
			out := make([]int, 0, i-lo+1)
			for j := lo; j <= i; j++ {
				out = append(out, j)
			}
			return out
		},
	},
	"all_to_all": {
		desc: "each point reads every point of the previous step (a step barrier; truncated to a 15-point rotation at large widths)",
		inputs: func(p Params, t, i int) []int {
			w := p.Width
			n := w
			if n > trace.MaxDeps {
				n = trace.MaxDeps
			}
			out := make([]int, 0, n)
			for m := 0; m < n; m++ {
				out = append(out, (i+m)%w)
			}
			return out
		},
	},
	"stencil_2d": {
		desc: "5-point stencil on a width x height grid: each point reads itself and its four edge neighbors of the previous step",
		is2D: true,
		inputs: func(p Params, t, i int) []int {
			x, y := i%p.Width, i/p.Width
			out := make([]int, 0, 5)
			out = append(out, i)
			if x > 0 {
				out = append(out, i-1)
			}
			if x < p.Width-1 {
				out = append(out, i+1)
			}
			if y > 0 {
				out = append(out, i-p.Width)
			}
			if y < p.Height-1 {
				out = append(out, i+p.Width)
			}
			return out
		},
	},
	"wavefront": {
		desc: "2-D wavefront (dom_2d): each point reads itself and its west and north neighbors of the previous step, the Smith-Waterman sweep",
		is2D: true,
		inputs: func(p Params, t, i int) []int {
			x, y := i%p.Width, i/p.Width
			out := make([]int, 0, 3)
			out = append(out, i)
			if x > 0 {
				out = append(out, i-1)
			}
			if y > 0 {
				out = append(out, i-p.Width)
			}
			return out
		},
	},
	"dagfile": {
		desc: "replays an arbitrary task graph from a DOT or JSON file (path=<file>); see ParseDAG for the format",
	},
}

// points returns the number of grid points per timestep.
func (p Params) points() int { return p.Width * p.Height }

// hole reports whether grid point i is inactive under the Gaps knob.
func (p Params) hole(i int) bool { return p.Gaps > 1 && i%p.Gaps == p.Gaps-1 }

// Families lists the pattern family names, sorted.
func Families() []string {
	names := make([]string, 0, len(families))
	for n := range families {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Describe returns the one-line description of a family ("" if unknown).
func Describe(name string) string { return families[name].desc }

// Parse resolves a pattern spec of the form
// "<family>?width=64&steps=100&len=1000&k=3&seed=1&jitter=0&layout=malloc"
// (everything after the family name optional) into fully-defaulted
// Params. The empty query separator is accepted: "stencil_1d" alone
// builds the default grid.
func Parse(s string) (Params, error) {
	name, query, _ := strings.Cut(s, "?")
	p := Params{
		Family:  name,
		Width:   DefaultWidth,
		Steps:   DefaultSteps,
		Len:     DefaultLen,
		K:       DefaultK,
		Seed:    DefaultSeed,
		Layout:  DefaultLayout,
		Fields:  DefaultFields,
		Height:  1,
		Regions: 1,
	}
	fam, ok := families[name]
	if !ok {
		return p, fmt.Errorf("patterns: unknown family %q (have %s)", name, strings.Join(Families(), ", "))
	}
	if fam.is2D {
		p.Height = DefaultHeight
	}
	vals, err := url.ParseQuery(query)
	if err != nil {
		return p, fmt.Errorf("patterns: %s: bad parameter string %q: %w", name, query, err)
	}
	for key, vs := range vals {
		if len(vs) != 1 {
			return p, fmt.Errorf("patterns: %s: parameter %q given %d times", name, key, len(vs))
		}
		if name == "dagfile" && key != "path" {
			// The replayed graph IS the workload: grid parameters would
			// be silently inert, so they are rejected instead.
			return p, fmt.Errorf("patterns: dagfile: parameter %s=%q: the dagfile family only takes path", key, vs[0])
		}
		v := vs[0]
		var perr error
		switch key {
		case "width":
			p.Width, perr = parseInt(v, 1, 1<<20)
		case "steps":
			p.Steps, perr = parseInt(v, 1, 1<<20)
		case "len":
			p.Len, perr = parseUint(v, 1, 1<<40)
		case "jitter":
			p.Jitter, perr = parseInt(v, 0, 90)
		case "k":
			p.K, perr = parseInt(v, 1, 1<<16)
		case "seed":
			p.Seed, perr = parseUint(v, 0, 1<<40)
		case "fields":
			p.Fields, perr = parseInt(v, 1, 8)
		case "layout":
			if _, ok := layoutStrides[v]; !ok {
				perr = fmt.Errorf("unknown layout %q (have malloc, aligned, spread, shard)", v)
			}
			p.Layout = v
		case "shards":
			p.Shards, perr = parseInt(v, 2, 64)
		case "height":
			if !fam.is2D {
				perr = fmt.Errorf("only the 2-D families take a height")
				break
			}
			p.Height, perr = parseInt(v, 1, 1<<12)
		case "gaps":
			p.Gaps, perr = parseInt(v, 2, 1<<16)
		case "regions":
			p.Regions, perr = parseInt(v, 1, 8)
		case "path":
			if name != "dagfile" {
				perr = fmt.Errorf("only the dagfile family takes a path")
				break
			}
			if v == "" {
				perr = fmt.Errorf("empty path")
				break
			}
			p.Path = v
		default:
			perr = fmt.Errorf("unknown parameter (have width, steps, len, jitter, k, seed, fields, layout, shards, height, gaps, regions, path)")
		}
		if perr != nil {
			return p, fmt.Errorf("patterns: %s: parameter %s=%q: %w", name, key, v, perr)
		}
	}
	if fam.needPow2 && p.Width&(p.Width-1) != 0 {
		return p, fmt.Errorf("patterns: %s: width must be a power of two, got %d", name, p.Width)
	}
	// The shards knob is the shard layout's alignment target; anywhere
	// else it would be silently inert.
	if p.Shards != 0 && p.Layout != "shard" {
		return p, fmt.Errorf("patterns: %s: shards=%d requires layout=shard", name, p.Shards)
	}
	if p.Layout == "shard" {
		if p.Shards == 0 {
			p.Shards = DefaultShards
		}
		if p.Regions > 1 {
			// Region replicas sit regionStride apart and hash to arbitrary
			// shards, defeating the alignment the layout promises.
			return p, fmt.Errorf("patterns: %s: layout=shard requires regions=1, got %d", name, p.Regions)
		}
	}
	if name == "dagfile" {
		if p.Path == "" {
			return p, fmt.Errorf("patterns: dagfile: a path=<file> parameter is required")
		}
		return p, nil
	}
	if p.points()*p.Steps > 1<<22 {
		return p, fmt.Errorf("patterns: %s: width*height*steps = %d exceeds the 4M-task cap", name, p.points()*p.Steps)
	}
	return p, nil
}

func parseInt(v string, lo, hi int) (int, error) {
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, err
	}
	if n < lo || n > hi {
		return 0, fmt.Errorf("out of range [%d, %d]", lo, hi)
	}
	return n, nil
}

// parseUint parses the wide-range parameters (len, seed), whose bounds
// exceed a 32-bit int.
func parseUint(v string, lo, hi uint64) (uint64, error) {
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0, err
	}
	if n < lo || n > hi {
		return 0, fmt.Errorf("out of range [%d, %d]", lo, hi)
	}
	return n, nil
}

// Name is the canonical compact name of the parameterized pattern, used
// as the trace name: family-w<width>-s<steps> plus any non-default
// parameters.
func (p Params) Name() string {
	if p.Family == "dagfile" {
		return "dagfile-" + strings.Map(func(r rune) rune {
			if r == '/' || r == '\\' {
				return '_'
			}
			return r
		}, p.Path)
	}
	var b strings.Builder
	if p.Height > 1 {
		fmt.Fprintf(&b, "%s-w%dx%d-s%d", p.Family, p.Width, p.Height, p.Steps)
	} else {
		fmt.Fprintf(&b, "%s-w%d-s%d", p.Family, p.Width, p.Steps)
	}
	if p.Len != DefaultLen {
		fmt.Fprintf(&b, "-len%d", p.Len)
	}
	if p.K != DefaultK {
		fmt.Fprintf(&b, "-k%d", p.K)
	}
	if p.Seed != DefaultSeed {
		fmt.Fprintf(&b, "-seed%d", p.Seed)
	}
	if p.Jitter != 0 {
		fmt.Fprintf(&b, "-j%d", p.Jitter)
	}
	if p.Fields != DefaultFields {
		fmt.Fprintf(&b, "-f%d", p.Fields)
	}
	if p.Gaps > 1 {
		fmt.Fprintf(&b, "-g%d", p.Gaps)
	}
	if p.Regions > 1 {
		fmt.Fprintf(&b, "-r%d", p.Regions)
	}
	if p.Layout != DefaultLayout {
		fmt.Fprintf(&b, "-%s", p.Layout)
		if p.Layout == "shard" && p.Shards != DefaultShards {
			fmt.Fprintf(&b, "%d", p.Shards)
		}
	}
	return b.String()
}

// Spec renders the Params back into the registry grammar (the inverse of
// Parse, modulo parameter ordering): "family?width=16&steps=10&...".
func (p Params) Spec() string {
	q := url.Values{}
	if p.Family == "dagfile" {
		q.Set("path", p.Path)
		return p.Family + "?" + q.Encode()
	}
	q.Set("width", strconv.Itoa(p.Width))
	q.Set("steps", strconv.Itoa(p.Steps))
	if fam := families[p.Family]; fam.is2D && p.Height != DefaultHeight {
		q.Set("height", strconv.Itoa(p.Height))
	}
	if p.Len != DefaultLen {
		q.Set("len", strconv.FormatUint(p.Len, 10))
	}
	if p.K != DefaultK {
		q.Set("k", strconv.Itoa(p.K))
	}
	if p.Seed != DefaultSeed {
		q.Set("seed", strconv.FormatUint(p.Seed, 10))
	}
	if p.Jitter != 0 {
		q.Set("jitter", strconv.Itoa(p.Jitter))
	}
	if p.Fields != DefaultFields {
		q.Set("fields", strconv.Itoa(p.Fields))
	}
	if p.Gaps > 1 {
		q.Set("gaps", strconv.Itoa(p.Gaps))
	}
	if p.Regions > 1 {
		q.Set("regions", strconv.Itoa(p.Regions))
	}
	if p.Layout != DefaultLayout {
		q.Set("layout", p.Layout)
		if p.Layout == "shard" && p.Shards != DefaultShards {
			q.Set("shards", strconv.Itoa(p.Shards))
		}
	}
	return p.Family + "?" + q.Encode()
}

func log2(w int) int {
	n := 0
	for 1<<uint(n+1) <= w {
		n++
	}
	return n
}
