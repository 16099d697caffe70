package patterns

import (
	"container/heap"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"unicode"

	"repro/internal/trace"
)

// intMinHeap is the Kahn frontier: a plain min-heap of node indices.
type intMinHeap []int

func (h intMinHeap) Len() int           { return len(h) }
func (h intMinHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h intMinHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *intMinHeap) Push(x any)        { *h = append(*h, x.(int)) }
func (h *intMinHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// The dagfile family replays an arbitrary task graph from a file, so
// measured applications (or graphs exported by other runtimes) can be
// pushed through every engine with the same grammar as the generated
// families:
//
//	pattern:dagfile?path=graph.dot
//	pattern:dagfile?path=graph.json
//
// Two formats are accepted, sniffed from the content:
//
// DOT — a restricted digraph subset: node statements carry an optional
// dur attribute (cycles), edge statements declare dependences and may
// chain. Node names are bare identifiers or double-quoted strings.
//
//	digraph g {
//	    a [dur=1200];
//	    b; "c.0" [dur=50];
//	    a -> b -> "c.0";
//	}
//
// JSON — an array of node objects in creation order:
//
//	[
//	    {"name": "a", "dur": 1200},
//	    {"name": "b", "after": ["a"]}
//	]
//
// Every node owns one address region written inout by its task; an edge
// u -> v (or v "after" u) makes v's task read u's region. Tasks are
// emitted in a deterministic topological order seeded by declaration
// order, so any acyclic graph replays even when edges point at
// later-declared nodes. Durations default to DefaultLen cycles.

// ErrBadDAG is the typed error every malformed graph file wraps: bad
// syntax, a missing name, an unknown, duplicate or self-referencing
// node, a cycle, too many predecessors. Its text is the "dag" prefix of
// the messages.
var ErrBadDAG = errors.New("dag")

// dagNode is one parsed graph node.
type dagNode struct {
	name  string
	dur   uint64
	preds []int // indices into the node list
}

// dagMaxNodes bounds parsed graphs at the same 4M-task cap as the
// generated grids.
const dagMaxNodes = 1 << 22

// buildDAGFile reads and replays the graph file named by p.Path.
func buildDAGFile(p Params) (*trace.Trace, error) {
	data, err := os.ReadFile(p.Path)
	if err != nil {
		return nil, fmt.Errorf("patterns: dagfile: %w", err)
	}
	tr, err := ParseDAG(data)
	if err != nil {
		return nil, fmt.Errorf("patterns: dagfile %s: %w", p.Path, err)
	}
	tr.Name = "pattern-" + p.Name()
	return tr, nil
}

// ParseDAG parses a task graph in either supported format (DOT if the
// content starts with a digraph header, JSON otherwise) and converts it
// into a runnable trace: one task per node in topological order, an
// inout dependence on the node's own address region and an in dependence
// per predecessor. It fails on cycles, on nodes whose in-degree exceeds
// the hardware's trace.MaxDeps-1 (the replay must be faithful, so
// truncation is an error here, unlike the generated families), and on
// malformed input.
func ParseDAG(data []byte) (*trace.Trace, error) {
	head := strings.TrimLeftFunc(string(data), unicode.IsSpace)
	var nodes []dagNode
	var err error
	if strings.HasPrefix(head, "digraph") || strings.HasPrefix(head, "strict") {
		nodes, err = parseDOT(head)
	} else {
		nodes, err = parseJSONDAG(data)
	}
	if err != nil {
		return nil, err
	}
	return dagTrace(nodes)
}

// jsonDAGNode is the JSON wire form of one node.
type jsonDAGNode struct {
	Name  string   `json:"name"`
	Dur   uint64   `json:"dur"`
	After []string `json:"after"`
}

func parseJSONDAG(data []byte) ([]dagNode, error) {
	var raw []jsonDAGNode
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("%w: not a digraph and not a JSON node array: %w", ErrBadDAG, err)
	}
	if len(raw) > dagMaxNodes {
		return nil, fmt.Errorf("%w: %d nodes exceeds the %d-task cap", ErrBadDAG, len(raw), dagMaxNodes)
	}
	nodes := make([]dagNode, 0, len(raw))
	index := make(map[string]int, len(raw))
	for _, n := range raw {
		if n.Name == "" {
			return nil, fmt.Errorf("%w: node %d has no name", ErrBadDAG, len(nodes))
		}
		if n.Dur >= 1<<40 {
			// Same 40-bit bound as the DOT path: durations beyond it
			// overflow cycle arithmetic (baselines sum every task).
			return nil, fmt.Errorf("%w: node %q has dur %d beyond the 2^40-cycle cap", ErrBadDAG, n.Name, n.Dur)
		}
		if _, dup := index[n.Name]; dup {
			return nil, fmt.Errorf("%w: duplicate node %q", ErrBadDAG, n.Name)
		}
		index[n.Name] = len(nodes)
		nodes = append(nodes, dagNode{name: n.Name, dur: n.Dur})
	}
	for i, n := range raw {
		for _, pred := range n.After {
			pi, ok := index[pred]
			if !ok {
				return nil, fmt.Errorf("%w: node %q depends on unknown node %q", ErrBadDAG, n.Name, pred)
			}
			if pi == i {
				return nil, fmt.Errorf("%w: node %q depends on itself", ErrBadDAG, n.Name)
			}
			nodes[i].preds = append(nodes[i].preds, pi)
		}
	}
	return nodes, nil
}

// parseDOT parses the restricted DOT subset documented above. It is a
// hand-rolled statement scanner, not a full DOT grammar: statements are
// separated by semicolons or newlines, attribute lists only recognize
// dur, and subgraphs/ports/undirected edges are rejected.
func parseDOT(src string) ([]dagNode, error) {
	open := strings.IndexByte(src, '{')
	closeIdx := strings.LastIndexByte(src, '}')
	if open < 0 || closeIdx < open {
		return nil, fmt.Errorf("%w: digraph body braces not found", ErrBadDAG)
	}
	body := src[open+1 : closeIdx]

	var nodes []dagNode
	index := make(map[string]int)
	intern := func(name string) (int, error) {
		if i, ok := index[name]; ok {
			return i, nil
		}
		if len(nodes) >= dagMaxNodes {
			return 0, fmt.Errorf("%w: more than %d nodes", ErrBadDAG, dagMaxNodes)
		}
		index[name] = len(nodes)
		nodes = append(nodes, dagNode{name: name})
		return len(nodes) - 1, nil
	}

	for _, stmt := range splitDOTStatements(body) {
		names, attrs, err := parseDOTStatement(stmt)
		if err != nil {
			return nil, err
		}
		if len(names) == 0 {
			continue
		}
		ids := make([]int, len(names))
		for i, name := range names {
			if ids[i], err = intern(name); err != nil {
				return nil, err
			}
		}
		// A chain a -> b -> c adds each hop as a dependence edge.
		for i := 1; i < len(ids); i++ {
			if ids[i] == ids[i-1] {
				return nil, fmt.Errorf("%w: node %q depends on itself", ErrBadDAG, names[i])
			}
			nodes[ids[i]].preds = append(nodes[ids[i]].preds, ids[i-1])
		}
		if durStr, ok := attrs["dur"]; ok {
			// dur is a node attribute; on an edge statement the
			// attribute list describes the edge, and guessing a node to
			// attach it to would silently corrupt durations.
			if len(names) != 1 {
				return nil, fmt.Errorf("%w: dur attribute on edge statement %q (put it on a node statement)", ErrBadDAG, strings.Join(names, " -> "))
			}
			dur, err := strconv.ParseUint(durStr, 10, 40)
			if err != nil || dur == 0 {
				return nil, fmt.Errorf("%w: node %q has bad dur %q", ErrBadDAG, names[0], durStr)
			}
			nodes[ids[0]].dur = dur
		}
	}
	return nodes, nil
}

// splitDOTStatements cuts the digraph body at semicolons and newlines,
// respecting double quotes and dropping // and # comment suffixes.
func splitDOTStatements(body string) []string {
	var stmts []string
	var b strings.Builder
	inQuote := false
	flush := func() {
		if s := strings.TrimSpace(b.String()); s != "" {
			stmts = append(stmts, s)
		}
		b.Reset()
	}
	for i := 0; i < len(body); i++ {
		c := body[i]
		switch {
		case c == '"':
			inQuote = !inQuote
			b.WriteByte(c)
		case !inQuote && (c == ';' || c == '\n'):
			flush()
		case !inQuote && c == '#':
			for i < len(body) && body[i] != '\n' {
				i++
			}
			flush()
		case !inQuote && c == '/' && i+1 < len(body) && body[i+1] == '/':
			for i < len(body) && body[i] != '\n' {
				i++
			}
			flush()
		default:
			b.WriteByte(c)
		}
	}
	flush()
	return stmts
}

// parseDOTStatement parses one statement into its node-name chain and
// attribute map.
func parseDOTStatement(stmt string) (names []string, attrs map[string]string, err error) {
	// Split off one trailing [key=value, ...] attribute list.
	if open := strings.IndexByte(stmt, '['); open >= 0 {
		closeIdx := strings.LastIndexByte(stmt, ']')
		if closeIdx < open {
			return nil, nil, fmt.Errorf("%w: unterminated attribute list in %q", ErrBadDAG, stmt)
		}
		attrs = map[string]string{}
		for _, kv := range strings.FieldsFunc(stmt[open+1:closeIdx], func(r rune) bool { return r == ',' || r == ' ' }) {
			k, v, found := strings.Cut(kv, "=")
			if !found {
				continue
			}
			attrs[strings.TrimSpace(k)] = strings.Trim(strings.TrimSpace(v), `"`)
		}
		stmt = strings.TrimSpace(stmt[:open])
	}
	if stmt == "" {
		return nil, attrs, nil
	}
	for _, part := range strings.Split(stmt, "->") {
		name, err := parseDOTName(strings.TrimSpace(part))
		if err != nil {
			return nil, nil, err
		}
		if name == "" {
			return nil, nil, fmt.Errorf("%w: empty node name in %q", ErrBadDAG, stmt)
		}
		names = append(names, name)
	}
	return names, attrs, nil
}

// parseDOTName validates a bare identifier or unwraps one quoted string.
func parseDOTName(s string) (string, error) {
	if strings.HasPrefix(s, `"`) {
		if len(s) < 2 || !strings.HasSuffix(s, `"`) {
			return "", fmt.Errorf("%w: unterminated quoted name %q", ErrBadDAG, s)
		}
		return s[1 : len(s)-1], nil
	}
	for _, r := range s {
		if !unicode.IsLetter(r) && !unicode.IsDigit(r) && r != '_' && r != '.' && r != '-' {
			return "", fmt.Errorf("%w: bad node name %q (quote names with special characters)", ErrBadDAG, s)
		}
	}
	return s, nil
}

// dagBase places replayed-graph addresses in their own arena, with the
// malloc-style stride the generated families use; node n (declaration
// index) owns dagAddr(n).
const (
	dagBase   = 0x7800_0000
	dagStride = 0x8010
)

func dagAddr(node int) uint64 { return dagBase + uint64(node)*dagStride }

// dagTrace converts parsed nodes into a validated trace: deterministic
// topological order (Kahn's algorithm, declaration order as the
// tie-break), one address region per node.
func dagTrace(nodes []dagNode) (*trace.Trace, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("%w: no tasks", ErrBadDAG)
	}
	// Deduplicate predecessor lists (parallel edges collapse into one
	// dependence; the hardware rejects duplicate addresses per task).
	for i := range nodes {
		seen := map[int]bool{}
		kept := nodes[i].preds[:0]
		for _, p := range nodes[i].preds {
			if !seen[p] {
				seen[p] = true
				kept = append(kept, p)
			}
		}
		nodes[i].preds = kept
		if len(kept) > trace.MaxDeps-1 {
			return nil, fmt.Errorf("%w: node %q has %d predecessors; the hardware tracks at most %d dependences per task (1 output + %d inputs)",
				ErrBadDAG, nodes[i].name, len(kept), trace.MaxDeps, trace.MaxDeps-1)
		}
	}
	// Kahn's algorithm over declaration order.
	indeg := make([]int, len(nodes))
	succs := make([][]int, len(nodes))
	for i, n := range nodes {
		indeg[i] = len(n.preds)
		for _, p := range n.preds {
			succs[p] = append(succs[p], i)
		}
	}
	// A min-heap frontier keyed on declaration index keeps the emission
	// order deterministic and as close to declaration order as the
	// edges allow, in O(n log n) even for graphs that are one wide
	// frontier (the node cap permits millions of nodes).
	frontier := &intMinHeap{}
	for i := range nodes {
		if indeg[i] == 0 {
			heap.Push(frontier, i)
		}
	}
	order := make([]int, 0, len(nodes))
	for frontier.Len() > 0 {
		n := heap.Pop(frontier).(int)
		order = append(order, n)
		for _, s := range succs[n] {
			if indeg[s]--; indeg[s] == 0 {
				heap.Push(frontier, s)
			}
		}
	}
	if len(order) != len(nodes) {
		return nil, fmt.Errorf("%w: the graph has a cycle (%d of %d nodes reachable in topological order)", ErrBadDAG, len(order), len(nodes))
	}

	tr := &trace.Trace{Name: "pattern-dagfile"}
	tr.Tasks = make([]trace.Task, 0, len(nodes))
	for id, n := range order {
		node := &nodes[n]
		deps := make([]trace.Dep, 0, len(node.preds)+1)
		deps = append(deps, trace.Dep{Addr: dagAddr(n), Dir: trace.InOut})
		for _, p := range node.preds {
			deps = append(deps, trace.Dep{Addr: dagAddr(p), Dir: trace.In})
		}
		dur := node.dur
		if dur == 0 {
			dur = DefaultLen
		}
		tr.Tasks = append(tr.Tasks, trace.Task{ID: uint32(id), Deps: deps, Duration: dur})
	}
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("%w: built an invalid trace: %w", ErrBadDAG, err)
	}
	return tr, nil
}
