package patterns

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"unicode"

	"repro/internal/trace"
)

// ErrRetiredNode is the typed error a streaming dagfile replay returns
// when an edge references a node that is no longer inside the retention
// window (or was never declared — a bounded window cannot tell the two
// apart without keeping every name forever, which is exactly the memory
// bound streaming exists to avoid).
var ErrRetiredNode = errors.New("patterns: dag edge references a node outside the retention window")

// streamDAGFile opens the graph file named by p.Path as a source.
//
// Under a retention window (retain > 0) JSON node arrays stream
// genuinely: the array is decoded one node at a time with a token
// decoder, and only the last retain declared node names are kept for
// edge resolution, so an arbitrarily long declaration-ordered graph
// replays in O(retain) state. The declaration order must therefore be
// topological ("after" edges point at earlier nodes) — the materialized
// ParseDAG's Kahn reordering needs the whole graph by definition. For
// graphs that are already declaration-ordered the two emit
// byte-identical traces: Kahn with a min-index frontier pops 0, 1, 2,
// ... exactly when every edge points backward.
//
// Without a window, and for DOT content at any window (DOT's grammar
// allows forward references and attributes after edges), the file is
// parsed whole by ParseDAG and re-streamed; the retention-window check
// still applies, so a DOT graph whose edges span more than retain
// emitted tasks fails with the same ErrRetiredNode a streamed JSON one
// would.
func streamDAGFile(p Params, retain int) (trace.Source, error) {
	if retain > 0 {
		head, err := sniffDAGHead(p.Path)
		if err != nil {
			return nil, err
		}
		if !strings.HasPrefix(head, "digraph") && !strings.HasPrefix(head, "strict") {
			src := &dagJSONSource{path: p.Path, name: "pattern-" + p.Name(), retain: retain}
			if err := src.Rewind(); err != nil {
				return nil, err
			}
			return src, nil
		}
	}
	tr, err := buildDAGFile(p)
	if err != nil {
		return nil, err
	}
	if err := checkDAGRetention(tr, retain); err != nil {
		return nil, err
	}
	return trace.FromTrace(tr), nil
}

// sniffDAGHead reads the first non-space bytes of the file, enough to
// pick the format the way ParseDAG does.
func sniffDAGHead(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", fmt.Errorf("patterns: dagfile: %w", err)
	}
	defer f.Close()
	buf := make([]byte, 512)
	n, err := io.ReadFull(f, buf)
	if err != nil && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
		return "", fmt.Errorf("patterns: dagfile %s: %w", path, err)
	}
	return strings.TrimLeftFunc(string(buf[:n]), unicode.IsSpace), nil
}

// checkDAGRetention verifies every edge of a materialized dag trace
// spans at most retain tasks, so a whole-file parse enforces the same
// window a true stream would. Addresses name nodes by declaration index
// and the window counts emission positions, which the topological
// reordering can change, so each task's own region (Deps[0]) maps its
// node back to its position first.
func checkDAGRetention(tr *trace.Trace, retain int) error {
	if retain <= 0 {
		return nil
	}
	pos := make([]int, len(tr.Tasks))
	for i := range tr.Tasks {
		pos[(tr.Tasks[i].Deps[0].Addr-dagBase)/dagStride] = i
	}
	for i := range tr.Tasks {
		for _, d := range tr.Tasks[i].Deps[1:] {
			pred := pos[(d.Addr-dagBase)/dagStride]
			if i-pred > retain {
				return fmt.Errorf("%w: task %d reads task %d, %d tasks back (window %d)",
					ErrRetiredNode, i, pred, i-pred, retain)
			}
		}
	}
	return nil
}

// dagJSONSource streams a JSON node array in declaration order with a
// bounded name-retention window.
type dagJSONSource struct {
	path   string
	name   string
	retain int

	f   *os.File
	dec *json.Decoder
	// index maps retained node names to their task IDs; ring is a
	// circular buffer of the same names in declaration order, so
	// eviction reuses the slot of the name falling out of the window
	// instead of growing a shifted slice forever.
	index map[string]int
	ring  []string
	next  int
	err   error
	done  bool
}

func (s *dagJSONSource) Name() string         { return s.name }
func (s *dagJSONSource) Kinds() []string      { return nil }
func (s *dagJSONSource) SerialCycles() uint64 { return 0 }
func (s *dagJSONSource) RefSeqCycles() uint64 { return 0 }

// Err returns the parse error that terminated the stream, if any —
// drivers check it through trace-level error probing once Next returns
// false.
func (s *dagJSONSource) Err() error { return s.err }

func (s *dagJSONSource) Rewind() error {
	if s.f != nil {
		s.f.Close()
		s.f = nil
	}
	f, err := os.Open(s.path)
	if err != nil {
		return fmt.Errorf("patterns: dagfile: %w", err)
	}
	dec := json.NewDecoder(f)
	tok, err := dec.Token()
	if err != nil {
		f.Close()
		return fmt.Errorf("patterns: dagfile %s: %w: not a digraph and not a JSON node array: %w", s.path, ErrBadDAG, err)
	}
	if delim, ok := tok.(json.Delim); !ok || delim != '[' {
		f.Close()
		return fmt.Errorf("patterns: dagfile %s: %w: not a digraph and not a JSON node array (got %v)", s.path, ErrBadDAG, tok)
	}
	s.f, s.dec = f, dec
	s.index = make(map[string]int)
	if s.retain > 0 && s.ring == nil {
		s.ring = make([]string, s.retain)
	}
	clear(s.ring)
	s.next = 0
	s.err = nil
	s.done = false
	return nil
}

func (s *dagJSONSource) fail(err error) (trace.Task, bool) {
	s.err = err
	s.done = true
	if s.f != nil {
		s.f.Close()
		s.f = nil
	}
	return trace.Task{}, false
}

func (s *dagJSONSource) Next() (trace.Task, bool) {
	if s.done || s.err != nil {
		return trace.Task{}, false
	}
	if !s.dec.More() {
		s.done = true
		if _, err := s.dec.Token(); err != nil { // the closing ']'
			return s.fail(fmt.Errorf("patterns: dagfile %s: %w: %w", s.path, ErrBadDAG, err))
		}
		s.f.Close()
		s.f = nil
		return trace.Task{}, false
	}
	var n jsonDAGNode
	if err := s.dec.Decode(&n); err != nil {
		return s.fail(fmt.Errorf("patterns: dagfile %s: %w: node %d: %w", s.path, ErrBadDAG, s.next, err))
	}
	id := s.next
	if id >= dagMaxNodes {
		return s.fail(fmt.Errorf("patterns: dagfile %s: %w: more than %d nodes", s.path, ErrBadDAG, dagMaxNodes))
	}
	if n.Name == "" {
		return s.fail(fmt.Errorf("patterns: dagfile %s: %w: node %d has no name", s.path, ErrBadDAG, id))
	}
	if n.Dur >= 1<<40 {
		return s.fail(fmt.Errorf("patterns: dagfile %s: %w: node %q has dur %d beyond the 2^40-cycle cap", s.path, ErrBadDAG, n.Name, n.Dur))
	}
	if _, dup := s.index[n.Name]; dup {
		return s.fail(fmt.Errorf("patterns: dagfile %s: %w: duplicate node %q", s.path, ErrBadDAG, n.Name))
	}

	deps := make([]trace.Dep, 0, len(n.After)+1)
	deps = append(deps, trace.Dep{Addr: dagAddr(id), Dir: trace.InOut})
	seen := map[int]bool{}
	for _, pred := range n.After {
		if pred == n.Name {
			// Not yet in the index, so the lookup below would blame the
			// window for what ParseDAG reports as a self-edge.
			return s.fail(fmt.Errorf("patterns: dagfile %s: %w: node %q depends on itself", s.path, ErrBadDAG, n.Name))
		}
		pi, ok := s.index[pred]
		if !ok {
			return s.fail(fmt.Errorf("%w: node %q (task %d) reads %q, not among the last %d declared nodes",
				ErrRetiredNode, n.Name, id, pred, len(s.index)))
		}
		if seen[pi] {
			continue // parallel edges collapse, as in the materialized path
		}
		seen[pi] = true
		deps = append(deps, trace.Dep{Addr: dagAddr(pi), Dir: trace.In})
	}
	if len(deps) > trace.MaxDeps {
		return s.fail(fmt.Errorf("patterns: dagfile %s: %w: node %q has %d predecessors; the hardware tracks at most %d dependences per task (1 output + %d inputs)",
			s.path, ErrBadDAG, n.Name, len(deps)-1, trace.MaxDeps, trace.MaxDeps-1))
	}

	if s.retain > 0 {
		slot := id % s.retain
		if old := s.ring[slot]; old != "" {
			delete(s.index, old)
		}
		s.ring[slot] = n.Name
	}
	s.index[n.Name] = id
	s.next++

	dur := n.Dur
	if dur == 0 {
		dur = DefaultLen
	}
	return trace.Task{ID: uint32(id), Deps: deps, Duration: dur}, true
}
