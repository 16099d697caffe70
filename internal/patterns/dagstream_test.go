package patterns

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/trace"
)

// dagFile writes content to a fresh graph file and returns its dagfile
// Params.
func dagFile(t *testing.T, name, content string) Params {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return Params{Family: "dagfile", Path: path}
}

// streamDAG drains the dagfile p under a retention window into a trace.
func streamDAG(p Params, retain int) (*trace.Trace, error) {
	src, err := Generate(p, retain)
	if err != nil {
		return nil, err
	}
	return trace.Materialize(src)
}

// TestDAGStreamErrorsSurface: a JSON stream that fails after handing
// out tasks must fail the whole drain, not yield the prefix before the
// bad node as if it were the graph.
func TestDAGStreamErrorsSurface(t *testing.T) {
	retired := dagFile(t, "retired.json",
		`[{"name":"a"},{"name":"b"},{"name":"c"},{"name":"d","after":["a"]}]`)
	if _, err := streamDAG(retired, 2); !errors.Is(err, ErrRetiredNode) {
		t.Errorf("read of a retired node under window 2: err %v, want ErrRetiredNode", err)
	}
	if _, err := streamDAG(retired, 3); err != nil {
		t.Errorf("the same read inside window 3: %v", err)
	}
	badDur := dagFile(t, "dur.json", `[{"name":"a"},{"name":"b","dur":"oops"}]`)
	if tr, err := streamDAG(badDur, 2); err == nil {
		t.Errorf(`"dur":"oops" streamed into %d tasks with no error`, len(tr.Tasks))
	}
}

// TestDAGRetentionCountsEmissionOrder: the window of a DOT graph counts
// emitted tasks, and Kahn's order can move a node away from its
// declaration position. Here p is declared first but emitted fifth, so
// r (emitted sixth) reads a task one back.
func TestDAGRetentionCountsEmissionOrder(t *testing.T) {
	p := Params{Family: "dagfile", Path: "testdata/dag/reordered.dot"}
	for _, retain := range []int{1, 2} {
		tr, err := streamDAG(p, retain)
		if err != nil {
			t.Fatalf("window %d: %v", retain, err)
		}
		if len(tr.Tasks) != 6 {
			t.Fatalf("window %d: %d tasks, want 6", retain, len(tr.Tasks))
		}
	}
	far := dagFile(t, "far.dot", `digraph g { a; b; c; a -> c; }`)
	if _, err := streamDAG(far, 1); !errors.Is(err, ErrRetiredNode) {
		t.Errorf("c reads a two tasks back under window 1: err %v, want ErrRetiredNode", err)
	}
	if _, err := streamDAG(far, 2); err != nil {
		t.Errorf("the same read inside window 2: %v", err)
	}
}

// TestDAGStreamSelfEdge: a node listing itself in "after" is the same
// malformed graph streamed or parsed whole, not a window violation.
func TestDAGStreamSelfEdge(t *testing.T) {
	p := dagFile(t, "self.json", `[{"name":"a"},{"name":"b","after":["b"]}]`)
	_, err := streamDAG(p, 2)
	if err == nil || errors.Is(err, ErrRetiredNode) || !strings.Contains(err.Error(), "depends on itself") {
		t.Errorf("streamed self-edge: err %v, want a depends-on-itself error", err)
	}
	if _, err := streamDAG(p, 0); err == nil || !strings.Contains(err.Error(), "depends on itself") {
		t.Errorf("whole-file self-edge: err %v, want a depends-on-itself error", err)
	}
}

// TestDAGStreamMatchesParseDAG: a declaration-ordered JSON graph
// streams into exactly the trace ParseDAG builds from the whole file.
// Only the whole-file route reorders forward edges, so a window refuses
// them.
func TestDAGStreamMatchesParseDAG(t *testing.T) {
	for _, f := range []string{"chain.json", "diamond.dot"} {
		path := "testdata/dag/" + f
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ParseDAG(data)
		if err != nil {
			t.Fatal(err)
		}
		for _, retain := range []int{0, 2, len(want.Tasks)} {
			got, err := streamDAG(Params{Family: "dagfile", Path: path}, retain)
			if err != nil {
				t.Fatalf("%s window %d: %v", f, retain, err)
			}
			if !reflect.DeepEqual(got.Tasks, want.Tasks) {
				t.Errorf("%s window %d: streamed %v, parsed %v", f, retain, got.Tasks, want.Tasks)
			}
		}
	}
	fwd := Params{Family: "dagfile", Path: "testdata/dag/forward.json"}
	if _, err := streamDAG(fwd, 0); err != nil {
		t.Errorf("forward edges without a window: %v", err)
	}
	if _, err := streamDAG(fwd, 3); !errors.Is(err, ErrRetiredNode) {
		t.Errorf("forward edge under a window: err %v, want ErrRetiredNode", err)
	}
}
