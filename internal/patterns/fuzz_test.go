package patterns

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzParsePattern drives arbitrary strings through the workload
// grammar: whatever Parse accepts must round-trip through Spec() and
// (size permitting) build a trace that passes validation — the contract
// BuildWorkload relies on.
func FuzzParsePattern(f *testing.F) {
	f.Add("stencil_1d?width=64&steps=100&len=1000")
	f.Add("random_nearest?k=5&seed=9&jitter=25")
	f.Add("all_to_all?layout=aligned&fields=1")
	f.Add("fft?width=8&steps=4")
	f.Add("tree")
	f.Add("dom?width=1&steps=1")
	f.Add("nosuch?width=2")
	f.Add("stencil_1d?width=1&width=2")
	f.Fuzz(func(t *testing.T, s string) {
		p, err := Parse(s)
		if err != nil {
			return
		}
		q, err := Parse(p.Spec())
		if err != nil {
			t.Fatalf("Spec() of accepted params %+v does not re-parse: %v", p, err)
		}
		if p != q {
			t.Fatalf("round trip drifted: %+v != %+v", p, q)
		}
		if p.Width*p.Steps > 4096 {
			return // keep the fuzz iteration cheap
		}
		tr, err := materialize(p)
		if err != nil {
			t.Fatalf("accepted params %+v failed to build: %v", p, err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("built trace invalid for %+v: %v", p, err)
		}
	})
}

// FuzzParseDAG drives arbitrary bytes through the dagfile parser: it
// must never panic, and whatever it accepts must be a validated,
// replayable trace (every task's dependence list within the hardware
// limits, IDs dense, durations non-zero).
func FuzzParseDAG(f *testing.F) {
	f.Add([]byte(`digraph g { a [dur=10]; a -> b; b -> "c.1" [x=1]; }`))
	f.Add([]byte(`digraph g { a -> b -> c -> d; }`))
	f.Add([]byte(`[{"name":"a","dur":5},{"name":"b","after":["a"]}]`))
	f.Add([]byte(`digraph g { a -> b; b -> a; }`))
	f.Add([]byte(`strict digraph { x; }`))
	f.Add([]byte(`digraph g { a // comment
	b # other comment
	a -> b }`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"not":"an array"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ParseDAG(data)
		if err != nil {
			return
		}
		if len(tr.Tasks) == 0 {
			t.Fatal("accepted graph built an empty trace")
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("accepted graph built an invalid trace: %v", err)
		}
	})
}

// FuzzDAGStream drives arbitrary bytes through the dagfile family under
// a retention window: Generate plus a full drain must never panic, every
// failure must be one of the family's typed errors, and whenever both
// the stream and ParseDAG accept a graph with the whole graph inside the
// window, they must build the same tasks.
func FuzzDAGStream(f *testing.F) {
	f.Add([]byte(`[{"name":"a"},{"name":"b"},{"name":"c"},{"name":"d","after":["a"]}]`), uint8(2))
	f.Add([]byte(`[{"name":"a"},{"name":"b","dur":"oops"}]`), uint8(2))
	f.Add([]byte(`digraph g { p; x1; x2; x3; q; q -> p; p -> r; }`), uint8(2))
	f.Add([]byte(`[{"name":"a"},{"name":"b","after":["b"]}]`), uint8(2))
	f.Add([]byte(`[{"name":"a","dur":5},{"name":"b","after":["a","a"]}]`), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, retain uint8) {
		path := filepath.Join(t.TempDir(), "g")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := streamDAG(Params{Family: "dagfile", Path: path}, int(retain))
		if err != nil {
			if !errors.Is(err, ErrBadDAG) && !errors.Is(err, ErrRetiredNode) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		want, err := ParseDAG(data)
		if err != nil || int(retain) < len(want.Tasks) {
			return
		}
		if !reflect.DeepEqual(got.Tasks, want.Tasks) {
			t.Fatalf("window %d: streamed %v, parsed %v", retain, got.Tasks, want.Tasks)
		}
	})
}
