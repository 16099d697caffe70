package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// DirtyHorizon enforces the contract of the incremental event horizon
// (internal/picos/horizon.go): the per-unit keys are re-polled lazily,
// only for units marked dirty, so ANY state change that can move a
// unit's nextEvent() horizon must mark that unit dirty.
// A missed markDirty is the nastiest bug class this model has — the
// horizon key goes stale, the fast path sleeps through a real event, and
// the divergence surfaces hundreds of thousands of cycles later as a
// wedged run or a schedule that differs from the cycle-stepped
// reference.
//
// The analyzer applies to packages named picos. A "unit" is any struct
// type with an `hid` field (its slot in the horizon keys). The tracked
// horizon-bearing mutations are:
//
//   - push/pop on a unit's registered FIFOs (lowercase push/pop — the
//     regFIFO surface; the raw queue.FIFO Push/Pop used inside
//     container types is not a unit-level event),
//   - assignments to the busy-timer and blocked/stalled fields that
//     gate nextEvent(): busyUntil, busyUntilFin, blocked, headStalled,
//     hasParked, stall, parkedStall, parkedRetryAt.
//
// A function containing such a mutation on owner O (the selector chain
// holding the FIFO or field, e.g. `p.gw` for p.gw.newQ.push) must also
// contain markDirty(O.hid), or reach one transitively by calling
// another method of the same unit that marks its own receiver dirty
// (the consume() idiom in trs.go/dct.go). Functions named reset,
// rebuildHorizon, nextEvent, active and markDirty are
// exempt: resets are followed by rebuildHorizon, which re-derives every
// key from scratch, and the scheduler internals are the mechanism
// itself. Anything else must carry a //lint:ignore dirtyhorizon with
// its proof of why the horizon cannot move.
var DirtyHorizon = &Analyzer{
	Name:    "dirtyhorizon",
	Doc:     "horizon-bearing unit mutations must markDirty the mutated unit",
	Applies: func(p *Package) bool { return p.Name == "picos" },
	Run:     runDirtyHorizon,
}

// horizonFields are the unit fields whose value feeds nextEvent() or the
// stepDue()/skipTo() stall accounting.
var horizonFields = map[string]bool{
	"busyUntil":     true,
	"busyUntilFin":  true,
	"blocked":       true,
	"headStalled":   true,
	"hasParked":     true,
	"stall":         true,
	"parkedStall":   true,
	"parkedRetryAt": true,
}

// dirtyExemptFuncs never need to mark units dirty themselves.
var dirtyExemptFuncs = map[string]bool{
	"reset":          true, // always followed by rebuildHorizon
	"rebuildHorizon": true, // re-derives every key
	"nextEvent":      true, // read-only polling surface
	"active":         true, // read-only
	"markDirty":      true, // the mechanism
}

// unitMutation is one horizon-bearing mutation found in a function body.
type unitMutation struct {
	pos   ast.Node
	owner string // selector chain of the mutated unit, e.g. "u" or "p.gw"
	what  string // human description for the diagnostic
}

func runDirtyHorizon(pass *Pass) {
	info := pass.Pkg.Info

	// Pass 1: per unit type, which methods mark their own receiver dirty
	// — directly or by calling sibling methods that do (the consume()
	// idiom). selfMarks is keyed "TypeName.method".
	type methodFacts struct {
		marks bool            // body contains markDirty(recv.hid)
		calls map[string]bool // sibling methods invoked on the receiver
	}
	facts := map[string]*methodFacts{}
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Body == nil {
				continue
			}
			recv, tname := receiverName(fn), receiverTypeName(fn)
			if recv == "" || tname == "" {
				continue
			}
			mf := &methodFacts{calls: map[string]bool{}}
			facts[tname+"."+fn.Name.Name] = mf
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if isMarkDirtyOf(call, recv) {
					mf.marks = true
				}
				if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
					if base, ok := sel.X.(*ast.Ident); ok && base.Name == recv {
						mf.calls[tname+"."+sel.Sel.Name] = true
					}
				}
				return true
			})
		}
	}
	selfMarks := func(key string) bool {
		seen := map[string]bool{}
		var walk func(k string) bool
		walk = func(k string) bool {
			if seen[k] {
				return false
			}
			seen[k] = true
			mf, ok := facts[k]
			if !ok {
				return false
			}
			if mf.marks {
				return true
			}
			for callee := range mf.calls {
				if walk(callee) {
					return true
				}
			}
			return false
		}
		return walk(key)
	}

	// Pass 2: find mutations and check each owner is marked dirty.
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || dirtyExemptFuncs[fn.Name.Name] {
				continue
			}
			muts := collectMutations(pass, fn)
			if len(muts) == 0 {
				continue
			}
			marked := collectMarkedOwners(fn)
			for _, m := range muts {
				if marked[m.owner] {
					continue
				}
				if ownerSatisfiedTransitively(info, fn, m.owner, selfMarks) {
					continue
				}
				pass.Reportf(m.pos.Pos(),
					"%s %s without marking the unit dirty; call markDirty(%s.hid) (or //lint:ignore dirtyhorizon with proof the horizon cannot move)",
					fn.Name.Name, m.what, m.owner)
			}
		}
	}
}

// isMarkDirtyOf reports whether call is markDirty(<owner>.hid) for the
// given owner chain (any callee chain: p.markDirty, u.p.markDirty...).
func isMarkDirtyOf(call *ast.CallExpr, owner string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "markDirty" || len(call.Args) != 1 {
		return false
	}
	arg, ok := chainString(call.Args[0])
	return ok && arg == owner+".hid"
}

// collectMarkedOwners returns every owner chain O for which the body
// contains a markDirty(O.hid) call, flow-insensitively.
func collectMarkedOwners(fn *ast.FuncDecl) map[string]bool {
	owners := map[string]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "markDirty" || len(call.Args) != 1 {
			return true
		}
		if arg, ok := chainString(call.Args[0]); ok && strings.HasSuffix(arg, ".hid") {
			owners[strings.TrimSuffix(arg, ".hid")] = true
		}
		return true
	})
	return owners
}

// collectMutations finds the horizon-bearing mutations of a function:
// regFIFO push/pop calls and horizon-field assignments whose owner is a
// unit (a struct with an hid field).
func collectMutations(pass *Pass, fn *ast.FuncDecl) []unitMutation {
	info := pass.Pkg.Info
	var muts []unitMutation
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.CallExpr:
			sel, ok := ast.Unparen(node.Fun).(*ast.SelectorExpr)
			if !ok || (sel.Sel.Name != "push" && sel.Sel.Name != "pop") {
				return true
			}
			// X is the FIFO chain: owner.fifoField — the unit is X's base.
			fifoSel, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			owner, ok := chainString(fifoSel.X)
			if !ok || !structHasField(info.TypeOf(fifoSel.X), "hid") {
				return true
			}
			muts = append(muts, unitMutation{
				pos:   node,
				owner: owner,
				what:  "calls " + owner + "." + fifoSel.Sel.Name + "." + sel.Sel.Name,
			})
		case *ast.AssignStmt:
			for _, lhs := range node.Lhs {
				sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
				if !ok || !horizonFields[sel.Sel.Name] {
					continue
				}
				owner, ok := chainString(sel.X)
				if !ok || !structHasField(info.TypeOf(sel.X), "hid") {
					continue
				}
				muts = append(muts, unitMutation{
					pos:   node,
					owner: owner,
					what:  "assigns " + owner + "." + sel.Sel.Name,
				})
			}
		case *ast.IncDecStmt:
			sel, ok := ast.Unparen(node.X).(*ast.SelectorExpr)
			if !ok || !horizonFields[sel.Sel.Name] {
				return true
			}
			owner, ok := chainString(sel.X)
			if !ok || !structHasField(info.TypeOf(sel.X), "hid") {
				return true
			}
			muts = append(muts, unitMutation{
				pos:   node,
				owner: owner,
				what:  "updates " + owner + "." + sel.Sel.Name,
			})
		}
		return true
	})
	return muts
}

// ownerSatisfiedTransitively reports whether a mutation on owner is
// covered by a call, somewhere in fn, to a method of that same unit that
// (transitively) marks its own receiver dirty — the consume() idiom,
// where the busy-timer update and the markDirty live in a helper.
func ownerSatisfiedTransitively(info *types.Info, fn *ast.FuncDecl, owner string, selfMarks func(string) bool) bool {
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		base, ok := chainString(sel.X)
		if !ok || base != owner {
			return true
		}
		tname := namedTypeName(info.TypeOf(sel.X))
		if tname != "" && selfMarks(tname+"."+sel.Sel.Name) {
			found = true
			return false
		}
		return true
	})
	return found
}

// namedTypeName extracts the bare named-type name from a (possibly
// pointer) type's string form: "*repro/internal/picos.trsUnit" ->
// "trsUnit".
func namedTypeName(t types.Type) string {
	if t == nil {
		return ""
	}
	s := t.String()
	s = strings.TrimPrefix(s, "*")
	if i := strings.LastIndex(s, "."); i >= 0 {
		s = s[i+1:]
	}
	if i := strings.Index(s, "["); i >= 0 { // generic instantiation
		s = s[:i]
	}
	return s
}
