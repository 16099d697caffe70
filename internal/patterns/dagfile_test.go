package patterns

import (
	"os"
	"path/filepath"
	"testing"
)

const testDOT = `digraph deps {
    // a diamond with a tail
    lu0 [dur=5000];
    fwd; bdiv [dur=40];
    "bmod.0" [dur=70];
    lu0 -> fwd;
    lu0 -> bdiv;
    fwd -> "bmod.0"; bdiv -> "bmod.0" # same-line comment
    "bmod.0" -> lu1
    lu1 [dur=5000]
}`

func TestParseDAGDot(t *testing.T) {
	tr, err := ParseDAG([]byte(testDOT))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Tasks) != 5 {
		t.Fatalf("%d tasks, want 5", len(tr.Tasks))
	}
	if tr.Tasks[0].Duration != 5000 || tr.Tasks[2].Duration != 40 {
		t.Errorf("durations not carried: %d, %d", tr.Tasks[0].Duration, tr.Tasks[2].Duration)
	}
	if tr.Tasks[1].Duration != DefaultLen {
		t.Errorf("default duration %d, want %d", tr.Tasks[1].Duration, DefaultLen)
	}
	// The diamond joint reads both parents: 1 owner + 2 reads.
	if n := len(tr.Tasks[3].Deps); n != 3 {
		t.Errorf("join node has %d deps, want 3", n)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParseDAGJSON(t *testing.T) {
	src := `[
	  {"name": "a", "dur": 100},
	  {"name": "c", "after": ["a", "b"]},
	  {"name": "b", "after": ["a"], "dur": 10}
	]`
	tr, err := ParseDAG([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Tasks) != 3 {
		t.Fatalf("%d tasks, want 3", len(tr.Tasks))
	}
	// c is declared before b but depends on it: the topological order
	// must emit a, b, c — c's task carries both read dependences.
	last := tr.Tasks[2]
	if len(last.Deps) != 3 {
		t.Errorf("last task has %d deps, want 3 (c with owner + 2 reads)", len(last.Deps))
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParseDAGRejects(t *testing.T) {
	for name, src := range map[string]string{
		"cycle":         `digraph g { a -> b; b -> a }`,
		"self":          `digraph g { a -> a }`,
		"empty":         `digraph g { }`,
		"no-braces":     `digraph g`,
		"bad-name":      `digraph g { a@! -> b }`,
		"bad-dur":       `digraph g { a [dur=banana] }`,
		"json-dup":      `[{"name":"a"},{"name":"a"}]`,
		"json-unknown":  `[{"name":"a","after":["zzz"]}]`,
		"json-noname":   `[{"dur":5}]`,
		"json-garbage":  `{"tasks": 12}`,
		"plain-garbage": `hello world`,
	} {
		if _, err := ParseDAG([]byte(src)); err == nil {
			t.Errorf("%s: ParseDAG accepted %q", name, src)
		}
	}
	// In-degree beyond the hardware's per-task limit is an error, not a
	// silent truncation.
	wide := `digraph g { `
	for i := 0; i < 15; i++ {
		wide += string(rune('a'+i)) + " -> z; "
	}
	wide += `}`
	if _, err := ParseDAG([]byte(wide)); err == nil {
		t.Error("15-predecessor node accepted; trace.MaxDeps allows only 14 reads")
	}
}

// TestDagfileWorkload: the family plumbs through Parse/Generate with a
// path parameter, producing a validated replayable trace.
func TestDagfileWorkload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.dot")
	if err := os.WriteFile(path, []byte(testDOT), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := Parse("dagfile?path=" + path)
	if err != nil {
		t.Fatal(err)
	}
	if q, err := Parse(p.Spec()); err != nil || p != q {
		t.Fatalf("dagfile round trip: %+v != %+v (%v)", p, q, err)
	}
	tr, err := materialize(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Tasks) != 5 {
		t.Errorf("%d tasks, want 5", len(tr.Tasks))
	}
	if _, err := Parse("dagfile"); err == nil {
		t.Error("dagfile without a path accepted")
	}
	if _, err := Parse("stencil_1d?path=x"); err == nil {
		t.Error("grid family accepted a path")
	}
	if _, err := materialize(Params{Family: "dagfile", Path: filepath.Join(t.TempDir(), "missing.dot")}); err == nil {
		t.Error("missing file accepted")
	}
}

// TestParseDAGParallelEdges: duplicate edges collapse into a single
// dependence (the hardware rejects duplicate addresses per task).
func TestParseDAGParallelEdges(t *testing.T) {
	tr, err := ParseDAG([]byte(`digraph g { a -> b; a -> b; }`))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(tr.Tasks[1].Deps); n != 2 {
		t.Errorf("parallel edges: %d deps, want 2", n)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestParseDAGReviewHardenings locks the parser's input hardening: the
// 40-bit duration cap on the JSON path, the rejection of dur on edge
// statements, and dagfile's rejection of inert grid parameters.
func TestParseDAGReviewHardenings(t *testing.T) {
	if _, err := ParseDAG([]byte(`[{"name":"a","dur":18446744073709551615}]`)); err == nil {
		t.Error("JSON dur beyond 2^40 accepted; cycle arithmetic would wrap")
	}
	if _, err := ParseDAG([]byte(`digraph g { a -> b [dur=100]; }`)); err == nil {
		t.Error("dur on an edge statement accepted; it would corrupt the source node's duration")
	}
	if _, err := Parse("dagfile?path=g.dot&len=500"); err == nil {
		t.Error("dagfile accepted an inert grid parameter")
	}
}
