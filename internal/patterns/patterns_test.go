package patterns

import (
	"strings"
	"testing"

	"repro/internal/picos"
	"repro/internal/taskgraph"
	"repro/internal/trace"
)

func TestFamiliesListed(t *testing.T) {
	want := []string{
		"all_to_all", "dagfile", "dom", "fft", "nearest", "no_comm",
		"random_nearest", "spread", "stencil_1d", "stencil_1d_periodic",
		"stencil_2d", "tree", "trivial", "wavefront",
	}
	got := Families()
	if len(got) != len(want) {
		t.Fatalf("Families() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Families()[%d] = %s, want %s", i, got[i], want[i])
		}
		if Describe(want[i]) == "" {
			t.Errorf("family %s has no description", want[i])
		}
	}
}

func TestParseDefaultsAndOverrides(t *testing.T) {
	p, err := Parse("stencil_1d")
	if err != nil {
		t.Fatal(err)
	}
	if p.Width != DefaultWidth || p.Steps != DefaultSteps || p.Len != DefaultLen ||
		p.K != DefaultK || p.Seed != DefaultSeed || p.Layout != DefaultLayout ||
		p.Fields != DefaultFields || p.Jitter != 0 {
		t.Fatalf("defaults not applied: %+v", p)
	}
	p, err = Parse("random_nearest?width=32&steps=50&len=2500&k=5&seed=7&jitter=10&fields=1&layout=spread")
	if err != nil {
		t.Fatal(err)
	}
	if p.Width != 32 || p.Steps != 50 || p.Len != 2500 || p.K != 5 || p.Seed != 7 ||
		p.Jitter != 10 || p.Fields != 1 || p.Layout != "spread" {
		t.Fatalf("overrides not applied: %+v", p)
	}
}

func TestParseRejects(t *testing.T) {
	for _, bad := range []string{
		"nosuchfamily",
		"stencil_1d?width=0",
		"stencil_1d?bogus=1",
		"stencil_1d?width=banana",
		"stencil_1d?layout=heap",
		"fft?width=12",                       // not a power of two
		"stencil_1d?width=4096&steps=４09600", // non-ASCII digit
		"all_to_all?width=10000&steps=10000", // over the task cap
		"stencil_1d?width=1&width=2",         // duplicate key
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}
}

func TestSpecRoundTrip(t *testing.T) {
	for _, s := range []string{
		"stencil_1d?width=64&steps=100",
		"random_nearest?k=5&seed=9&width=8&steps=4",
		"all_to_all?layout=aligned&width=8&steps=4&len=17",
	} {
		p, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		q, err := Parse(p.Spec())
		if err != nil {
			t.Fatalf("Parse(Spec(%q)) = Parse(%q): %v", s, p.Spec(), err)
		}
		if p != q {
			t.Errorf("round trip of %q: %+v != %+v", s, p, q)
		}
	}
}

// materialize is the whole-trace form of a pattern: its Generate stream
// drained by trace.Materialize.
func materialize(p Params) (*trace.Trace, error) {
	src, err := Generate(p, 0)
	if err != nil {
		return nil, err
	}
	return trace.Materialize(src)
}

// build is a test helper: parse + materialize, failing the test on error.
func build(t *testing.T, spec string) *trace.Trace {
	t.Helper()
	p, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := materialize(p)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestBuildShapesAndValidity(t *testing.T) {
	for _, fam := range Families() {
		if fam == "dagfile" {
			continue // replays a file; covered by the dagfile tests
		}
		spec := fam + "?width=8&steps=5"
		p, err := Parse(spec)
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		tr := build(t, spec)
		if want := p.Width * p.Height * 5; len(tr.Tasks) != want {
			t.Errorf("%s: %d tasks, want width*height*steps = %d", fam, len(tr.Tasks), want)
		}
		if err := tr.Validate(); err != nil {
			t.Errorf("%s: invalid trace: %v", fam, err)
		}
		if !strings.HasPrefix(tr.Name, "pattern-"+fam) {
			t.Errorf("%s: trace name %q", fam, tr.Name)
		}
		// Step 0 carries no inputs: exactly the owner dependence.
		for i := 0; i < p.Width*p.Height; i++ {
			if n := len(tr.Tasks[i].Deps); n != 1 {
				t.Errorf("%s: step-0 task %d has %d deps, want 1", fam, i, n)
			}
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	a := build(t, "random_nearest?width=16&steps=8&seed=3&jitter=20")
	b := build(t, "random_nearest?width=16&steps=8&seed=3&jitter=20")
	if len(a.Tasks) != len(b.Tasks) {
		t.Fatal("lengths differ")
	}
	for i := range a.Tasks {
		if a.Tasks[i].Duration != b.Tasks[i].Duration || len(a.Tasks[i].Deps) != len(b.Tasks[i].Deps) {
			t.Fatalf("task %d differs between identical builds", i)
		}
	}
	c := build(t, "random_nearest?width=16&steps=8&seed=4&jitter=20")
	same := true
	for i := range a.Tasks {
		if len(a.Tasks[i].Deps) != len(c.Tasks[i].Deps) {
			same = false
			break
		}
	}
	if same {
		t.Error("seed change did not change the dependence structure")
	}
}

// TestStencilEdges: with double-buffered fields, interior points read
// self + both neighbors (4 deps with the owner), boundary points lose
// one; the periodic variant wraps so every point has 4. With fields=1
// the self-read aliases the owner inout and dedups away.
func TestStencilEdges(t *testing.T) {
	tr := build(t, "stencil_1d?width=8&steps=2")
	for i := 0; i < 8; i++ {
		task := tr.Tasks[8+i]
		want := 4
		if i == 0 || i == 7 {
			want = 3
		}
		if len(task.Deps) != want {
			t.Errorf("stencil task %d: %d deps, want %d", i, len(task.Deps), want)
		}
	}
	tr = build(t, "stencil_1d_periodic?width=8&steps=2")
	for i := 0; i < 8; i++ {
		if len(tr.Tasks[8+i].Deps) != 4 {
			t.Errorf("periodic stencil task %d: %d deps, want 4", i, len(tr.Tasks[8+i].Deps))
		}
	}
	tr = build(t, "stencil_1d?width=8&steps=2&fields=1")
	if n := len(tr.Tasks[8+3].Deps); n != 3 {
		t.Errorf("in-place stencil task 3: %d deps, want 3 (self-read aliases the inout)", n)
	}
}

// TestDepCapRespected: dom and all_to_all at widths beyond the hardware
// limit truncate to 14 reads + 1 owner = trace.MaxDeps.
func TestDepCapRespected(t *testing.T) {
	for _, fam := range []string{"dom", "all_to_all"} {
		tr := build(t, fam+"?width=64&steps=2")
		maxSeen := 0
		for i := range tr.Tasks {
			if n := len(tr.Tasks[i].Deps); n > maxSeen {
				maxSeen = n
			}
		}
		if maxSeen != trace.MaxDeps {
			t.Errorf("%s/64: max deps %d, want exactly %d (truncated)", fam, maxSeen, trace.MaxDeps)
		}
	}
}

// TestGraphSemantics checks the dependence structure the buffer encoding
// induces, via the oracle graph: all_to_all makes every step a barrier
// (each task depends on all of the previous step), trivial has no edges
// at all, no_comm exactly width independent chains.
func TestGraphSemantics(t *testing.T) {
	g := taskgraph.Build(build(t, "all_to_all?width=4&steps=3"))
	lv := g.Levels()
	for i, l := range lv {
		if want := i / 4; l != want {
			t.Fatalf("all_to_all task %d at level %d, want %d", i, l, want)
		}
	}

	g = taskgraph.Build(build(t, "trivial?width=4&steps=3"))
	for i := 0; i < g.N; i++ {
		if len(g.Succ[i]) != 0 {
			t.Fatalf("trivial task %d has successors %v", i, g.Succ[i])
		}
	}

	g = taskgraph.Build(build(t, "no_comm?width=4&steps=3"))
	for i := 0; i < g.N; i++ {
		switch {
		case i < 4: // step 0: RAW successor (1,i), WAW successor (2,i)
			if len(g.Succ[i]) != 2 || int(g.Succ[i][0]) != i+4 || int(g.Succ[i][1]) != i+8 {
				t.Fatalf("no_comm task %d: succ %v, want [%d %d]", i, g.Succ[i], i+4, i+8)
			}
		case i < 8:
			if len(g.Succ[i]) != 1 || int(g.Succ[i][0]) != i+4 {
				t.Fatalf("no_comm task %d: succ %v, want [%d]", i, g.Succ[i], i+4)
			}
		default:
			if len(g.Succ[i]) != 0 {
				t.Fatalf("no_comm last-step task %d has successors", i)
			}
		}
	}
	// The chains stay independent: point i's chain never crosses point j's.
	lv = g.Levels()
	for i, l := range lv {
		if l != i/4 {
			t.Fatalf("no_comm task %d at level %d, want %d", i, l, i/4)
		}
	}
}

// TestTreeFanOut: the tree frontier doubles per step; once the frontier
// covers the row, each point just chains with itself.
func TestTreeFanOut(t *testing.T) {
	tr := build(t, "tree?width=8&steps=5")
	g := taskgraph.Build(tr)
	preds := func(id int) map[int]bool {
		m := map[int]bool{}
		for i := 0; i < g.N; i++ {
			for _, s := range g.Succ[i] {
				if int(s) == id {
					m[i] = true
				}
			}
		}
		return m
	}
	// Task (t=1, i=1) reads its parent's (point 0) step-0 buffer: its
	// only predecessor is the root, task 0.
	if p := preds(8 + 1); !p[0] || len(p) != 1 {
		t.Fatalf("tree task (1,1) preds %v, want {0}", p)
	}
	// Point 5 becomes active at step 3 (frontier 8): at step 2 (frontier
	// 4) it has no parent read, only the WAW on its own step-0 buffer.
	if p := preds(2*8 + 5); !p[5] || len(p) != 1 {
		t.Fatalf("tree task (2,5) preds %v, want {5}", p)
	}
}

// TestLayoutStrides: the three layouts stride buffers as documented.
func TestLayoutStrides(t *testing.T) {
	for layout, stride := range map[string]uint64{"malloc": 0x8010, "aligned": 0x8000, "spread": 260} {
		tr := build(t, "no_comm?width=4&steps=1&fields=1&layout="+layout)
		a0 := tr.Tasks[0].Deps[0].Addr
		a1 := tr.Tasks[1].Deps[0].Addr
		if a1-a0 != stride {
			t.Errorf("layout %s: stride %d, want %d", layout, a1-a0, stride)
		}
	}
}

func TestJitterBoundsDurations(t *testing.T) {
	tr := build(t, "no_comm?width=32&steps=4&len=1000&jitter=25")
	varied := false
	for i := range tr.Tasks {
		d := tr.Tasks[i].Duration
		if d < 750 || d > 1250 {
			t.Fatalf("task %d duration %d outside ±25%% of 1000", i, d)
		}
		if d != 1000 {
			varied = true
		}
	}
	if !varied {
		t.Error("jitter=25 produced constant durations")
	}
}

// TestStencil2DShape: the 5-point stencil on a width x height grid. With
// double-buffered fields an interior point reads itself and four edge
// neighbors of the previous step (6 deps with the owner); corners lose
// two neighbors.
func TestStencil2DShape(t *testing.T) {
	tr := build(t, "stencil_2d?width=6&height=4&steps=2")
	if len(tr.Tasks) != 6*4*2 {
		t.Fatalf("%d tasks, want 48", len(tr.Tasks))
	}
	step1 := func(x, y int) int { return 24 + y*6 + x }
	if n := len(tr.Tasks[step1(2, 1)].Deps); n != 6 {
		t.Errorf("interior point: %d deps, want 6", n)
	}
	if n := len(tr.Tasks[step1(0, 0)].Deps); n != 4 {
		t.Errorf("corner point: %d deps, want 4 (owner + self + 2 neighbors)", n)
	}
}

// TestWavefrontShape: the dom_2d sweep reads west and north of the
// previous step; the origin reads only itself.
func TestWavefrontShape(t *testing.T) {
	tr := build(t, "wavefront?width=5&height=3&steps=2")
	step1 := func(x, y int) int { return 15 + y*5 + x }
	if n := len(tr.Tasks[step1(2, 1)].Deps); n != 4 {
		t.Errorf("interior point: %d deps, want 4 (owner + self + west + north)", n)
	}
	if n := len(tr.Tasks[step1(0, 0)].Deps); n != 2 {
		t.Errorf("origin: %d deps, want 2", n)
	}
	// Height defaults for the 2-D families, and 1-D families reject it.
	p, err := Parse("wavefront")
	if err != nil || p.Height != DefaultHeight {
		t.Errorf("wavefront default height = %d (err %v), want %d", p.Height, err, DefaultHeight)
	}
	if _, err := Parse("stencil_1d?height=4"); err == nil {
		t.Error("stencil_1d accepted a height")
	}
}

// TestGapsThinTheGrid: every gaps-th point is inactive — no tasks, and
// reads that would name it are skipped.
func TestGapsThinTheGrid(t *testing.T) {
	tr := build(t, "no_comm?width=8&steps=3&gaps=4")
	// Points 3 and 7 are holes: 6 tasks per step.
	if len(tr.Tasks) != 18 {
		t.Fatalf("%d tasks, want 18", len(tr.Tasks))
	}
	tr = build(t, "stencil_1d?width=8&steps=2&gaps=4")
	// Step-1 point 2 reads {1, 2} of the previous step; neighbor 3 is a
	// hole and drops out: owner + 2 reads.
	var task2 = tr.Tasks[6+2] // 6 active points per step, point 2 is the third
	if len(task2.Deps) != 3 {
		t.Errorf("point beside a hole: %d deps, want 3", len(task2.Deps))
	}
	if _, err := Parse("no_comm?gaps=1"); err == nil {
		t.Error("gaps=1 (everything a hole) should be rejected")
	}
	// An all-holes grid cannot happen (gaps >= 2 keeps point 0 active).
	tr = build(t, "trivial?width=2&steps=1&gaps=2")
	if len(tr.Tasks) != 1 {
		t.Errorf("width-2 gaps=2: %d tasks, want 1", len(tr.Tasks))
	}
}

// TestRegionsMultiAddress: regions=k gives every task k inout regions of
// its own point and k read regions per input, the h264dec-deblock shape.
func TestRegionsMultiAddress(t *testing.T) {
	tr := build(t, "no_comm?width=4&steps=2&regions=3")
	t0 := tr.Tasks[0]
	if len(t0.Deps) != 3 {
		t.Fatalf("step-0 task: %d deps, want 3 owner regions", len(t0.Deps))
	}
	for r := 1; r < 3; r++ {
		if d := t0.Deps[r].Addr - t0.Deps[r-1].Addr; d != uint64(1<<40)|0x44 {
			t.Errorf("region stride %#x, want %#x", d, uint64(1<<40)|0x44)
		}
		if !t0.Deps[r].Dir.Writes() {
			t.Errorf("owner region %d is not inout", r)
		}
	}
	t1 := tr.Tasks[4]
	// Owner 3 regions + 3 read regions of the same point's previous
	// step (double-buffered, so distinct addresses).
	if len(t1.Deps) != 6 {
		t.Errorf("step-1 task: %d deps, want 6", len(t1.Deps))
	}
	// The per-task cap still holds when regions multiply wide families.
	tr = build(t, "all_to_all?width=8&steps=2&regions=4")
	for i := range tr.Tasks {
		if len(tr.Tasks[i].Deps) > trace.MaxDeps {
			t.Fatalf("task %d exceeds MaxDeps with %d deps", i, len(tr.Tasks[i].Deps))
		}
	}
}

// TestShardLayoutAlignsDeps: under layout=shard every buffer of point i
// hashes to shard i*shards/points, so a chain family's dependences stay
// on one shard and a local family only crosses at block boundaries.
func TestShardLayoutAlignsDeps(t *testing.T) {
	const shards = 4
	shardOf := func(a uint64) int { return picos.Shard(a, shards) }

	// no_comm chains never leave their point, so every task is strictly
	// single-shard, and the per-point shard is the contiguous-block map.
	tr := build(t, "no_comm?width=32&steps=6&layout=shard&shards=4")
	for i := range tr.Tasks {
		want := shardOf(tr.Tasks[i].Deps[0].Addr)
		for _, d := range tr.Tasks[i].Deps {
			if got := shardOf(d.Addr); got != want {
				t.Fatalf("task %d: dep %#x on shard %d, want %d", i, d.Addr, got, want)
			}
		}
	}
	for i := 0; i < 32; i++ {
		if got, want := shardOf(tr.Tasks[i].Deps[0].Addr), i*shards/32; got != want {
			t.Fatalf("point %d owner buffer on shard %d, want %d", i, got, want)
		}
	}

	// stencil_1d: only tasks whose window touches a block boundary may
	// cross; with width 32 over 4 shards that is 2 points per internal
	// boundary, and the malloc layout scatters far more for contrast.
	crossing := func(tr *trace.Trace) int {
		n := 0
		for i := range tr.Tasks {
			first := shardOf(tr.Tasks[i].Deps[0].Addr)
			for _, d := range tr.Tasks[i].Deps[1:] {
				if shardOf(d.Addr) != first {
					n++
					break
				}
			}
		}
		return n
	}
	st := build(t, "stencil_1d?width=32&steps=6&layout=shard&shards=4")
	if got, limit := crossing(st), 2*(shards-1)*6; got > limit {
		t.Errorf("shard layout: %d tasks cross shards, want <= %d boundary tasks", got, limit)
	}
	ml := build(t, "stencil_1d?width=32&steps=6")
	if cs, cm := crossing(st), crossing(ml); cs >= cm {
		t.Errorf("shard layout crosses %d, malloc %d — alignment gained nothing", cs, cm)
	}
}

// TestShardParamValidation: shards requires layout=shard, which in turn
// rejects multi-region tasks (their replicas hash to arbitrary shards).
func TestShardParamValidation(t *testing.T) {
	if _, err := Parse("no_comm?shards=4"); err == nil {
		t.Error("shards without layout=shard accepted")
	}
	if _, err := Parse("no_comm?layout=shard&regions=2"); err == nil {
		t.Error("layout=shard with regions=2 accepted")
	}
	p, err := Parse("no_comm?layout=shard")
	if err != nil {
		t.Fatal(err)
	}
	if p.Shards != DefaultShards {
		t.Errorf("default shards = %d, want %d", p.Shards, DefaultShards)
	}
	for _, s := range []string{"no_comm?layout=shard&shards=8&width=8&steps=2"} {
		p, err := Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		q, err := Parse(p.Spec())
		if err != nil || p != q {
			t.Errorf("round trip of %q: %+v != %+v (%v)", s, p, q, err)
		}
	}
}

// TestFamilyKind: every pattern task is labeled with its family as the
// task kind, so worker-class affinities can target families.
func TestFamilyKind(t *testing.T) {
	tr := build(t, "fft?width=8&steps=4")
	if len(tr.Kinds) != 1 || tr.Kinds[0] != "fft" {
		t.Fatalf("Kinds = %v, want [fft]", tr.Kinds)
	}
	for i := range tr.Tasks {
		if tr.Tasks[i].Kind != 1 {
			t.Fatalf("task %d kind %d, want 1", i, tr.Tasks[i].Kind)
		}
	}
	if got := tr.KindOf(0); got != "fft" {
		t.Errorf("KindOf(0) = %q, want fft", got)
	}
}
