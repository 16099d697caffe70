package lint

import (
	"go/ast"
	"go/types"
)

// DirtyHorizon enforces the contract of the event horizon
// (internal/picos/horizon.go): every unit's key must equal its
// nextEvent() whenever the scheduler reads it, and nothing polls the
// keys to keep them so. A key moves only when its unit steps (the
// post-step rekey) or when input lands in one of its empty FIFOs
// (lower). A key that misses a move goes stale: the fast path sleeps
// through a real event or steps a unit that cannot act, and the
// divergence surfaces hundreds of thousands of cycles later as a wedged
// run or a schedule that differs from the cycle-stepped reference.
//
// The analyzer applies to packages named picos. A unit is a struct type
// with an hid field (its key slot); a wired FIFO is a struct type with
// key and gate fields (regFIFO). It checks four rules:
//
//   - Key writes. A horizon key — an element of an hkey field, the field
//     itself, or anything written through a *uint64 (the wired key
//     pointers) — is written only in lower, in rebuildHorizon, or by the
//     post-step rekey `p.hkey[u.hid] = u.nextEvent()` directly after
//     `u.step(now)`.
//   - Rekey after step. A call of a unit's step from outside the unit
//     is directly followed by that rekey.
//   - Gating fields. The fields besides the FIFOs that nextEvent and the
//     stall accounting read (busyUntil, busyUntilFin, blocked,
//     blockedAt, headStalled, hasParked, stall, parkedStall,
//     parkedRetryAt) are written only on the receiver, by methods of the
//     unit's own type reached from its step or its reset: the rekey
//     after the step, or the rebuildHorizon after a reset, accounts for
//     the change. gateway.returnCredit, which a DCT's step calls, may
//     raise the GW's retry signal but no gating field.
//   - Inputs. A unit's input arrives only through a wired FIFO's push or
//     through a function that lowers the key itself (arbiter.route): a
//     raw Push into a wired FIFO's inner queue outside the FIFO's own
//     methods, or a push into a unit input that is not a wired FIFO (a
//     field the unit's nextEvent reads) from a function that never calls
//     lower, is a finding.
//
// Anything else must carry a //lint:ignore dirtyhorizon with its proof
// of why the key cannot move.
var DirtyHorizon = &Analyzer{
	Name:    "dirtyhorizon",
	Doc:     "horizon keys move only at the post-step rekey and at lowering pushes into a unit's inputs",
	Applies: func(p *Package) bool { return p.Name == "picos" },
	Run:     runDirtyHorizon,
}

// gatingFields are the unit fields besides the input FIFOs whose value
// feeds nextEvent() or the stepDue()/skipTo() stall accounting.
var gatingFields = map[string]bool{
	"busyUntil":     true,
	"busyUntilFin":  true,
	"blocked":       true,
	"blockedAt":     true,
	"headStalled":   true,
	"hasParked":     true,
	"stall":         true,
	"parkedStall":   true,
	"parkedRetryAt": true,
}

// keyWriters may write horizon keys freely: lower is the one lowering,
// rebuildHorizon derives every key from scratch.
var keyWriters = map[string]bool{"lower": true, "rebuildHorizon": true}

// horizonFacts are the per-type method facts the rules need.
type horizonFacts struct {
	// reached holds "Type.method" for every method reached from its own
	// type's step or reset through calls on the receiver.
	reached map[string]bool
	// inputs holds, per unit type, the receiver fields its nextEvent
	// reads.
	inputs map[string]map[string]bool
}

func runDirtyHorizon(pass *Pass) {
	facts := collectHorizonFacts(pass)
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				checkHorizonFunc(pass, fn, facts)
			}
		}
	}
}

// collectHorizonFacts walks every method once: which sibling methods it
// calls on its receiver, and for nextEvent which receiver fields it
// reads.
func collectHorizonFacts(pass *Pass) horizonFacts {
	calls := map[string][]string{} // "Type.method" -> sibling "Type.method"s
	var roots []string             // every step and reset method
	hf := horizonFacts{reached: map[string]bool{}, inputs: map[string]map[string]bool{}}
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			recv, tname := receiverName(fn), receiverTypeName(fn)
			if recv == "" || tname == "" {
				continue
			}
			key := tname + "." + fn.Name.Name
			if fn.Name.Name == "step" || fn.Name.Name == "reset" {
				roots = append(roots, key)
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch node := n.(type) {
				case *ast.CallExpr:
					if sel, ok := ast.Unparen(node.Fun).(*ast.SelectorExpr); ok && isIdent(sel.X, recv) {
						calls[key] = append(calls[key], tname+"."+sel.Sel.Name)
					}
				case *ast.SelectorExpr:
					if fn.Name.Name == "nextEvent" && isIdent(node.X, recv) {
						if hf.inputs[tname] == nil {
							hf.inputs[tname] = map[string]bool{}
						}
						hf.inputs[tname][node.Sel.Name] = true
					}
				}
				return true
			})
		}
	}
	var walk func(string)
	walk = func(k string) {
		if hf.reached[k] {
			return
		}
		hf.reached[k] = true
		for _, callee := range calls[k] {
			walk(callee)
		}
	}
	for _, k := range roots {
		walk(k)
	}
	return hf
}

// checkHorizonFunc applies the four rules to one function body.
func checkHorizonFunc(pass *Pass, fn *ast.FuncDecl, hf horizonFacts) {
	info := pass.Pkg.Info
	name, recv, tname := fn.Name.Name, receiverName(fn), receiverTypeName(fn)

	// The post-step rekeys: `O.step(...)` directly followed, in the
	// same statement list, by `P.hkey[O.hid] = O.nextEvent()`.
	rekeys := map[ast.Stmt]bool{}
	rekeyed := map[*ast.CallExpr]bool{}
	forEachStmtList(fn.Body, func(list []ast.Stmt) {
		for i := 0; i+1 < len(list); i++ {
			call, owner, ok := unitStepCall(info, list[i])
			if ok && isRekey(list[i+1], owner) {
				rekeys[list[i+1]] = true
				rekeyed[call] = true
			}
		}
	})
	lowers := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isIdent(call.Fun, "lower") {
			lowers = true
		}
		return !lowers
	})

	checkWrite := func(stmt ast.Stmt, lhs ast.Expr) {
		if isKeyTarget(info, lhs) {
			if !keyWriters[name] && !rekeys[stmt] {
				pass.Reportf(lhs.Pos(), "%s writes a horizon key outside lower, rebuildHorizon and the post-step rekey", name)
			}
			return
		}
		sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
		if !ok || !gatingFields[sel.Sel.Name] || !structHasField(info.TypeOf(sel.X), "hid") {
			return
		}
		owner, _ := chainString(sel.X)
		unit := namedTypeName(info.TypeOf(sel.X))
		if tname == unit && owner == recv && hf.reached[unit+"."+name] {
			return
		}
		pass.Reportf(lhs.Pos(), "%s writes %s.%s outside %s's step and reset, so no rekey covers it", name, owner, sel.Sel.Name, unit)
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range node.Lhs {
				checkWrite(node, lhs)
			}
		case *ast.IncDecStmt:
			checkWrite(node, node.X)
		case *ast.CallExpr:
			sel, ok := ast.Unparen(node.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch sel.Sel.Name {
			case "step":
				unit := namedTypeName(info.TypeOf(sel.X))
				if structHasField(info.TypeOf(sel.X), "hid") && unit != tname && !rekeyed[node] {
					owner, _ := chainString(sel.X)
					pass.Reportf(node.Pos(), "%s steps %s without the rekey p.hkey[%s.hid] = %s.nextEvent() directly after it", name, owner, owner, owner)
				}
			case "push", "Push":
				checkInputPush(pass, node, sel, tname, name, lowers, hf)
			}
		}
		return true
	})
}

// checkInputPush applies the inputs rule to one push call.
func checkInputPush(pass *Pass, call *ast.CallExpr, sel *ast.SelectorExpr, tname, name string, lowers bool, hf horizonFacts) {
	info := pass.Pkg.Info
	field, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return
	}
	holder := info.TypeOf(field.X)
	target, _ := chainString(field)
	switch {
	case isWiredFIFO(holder):
		if namedTypeName(holder) != tname {
			pass.Reportf(call.Pos(), "%s pushes into %s, the inner queue of a wired FIFO, bypassing its push and the key lowering", name, target)
		}
	case structHasField(holder, "hid"):
		unit := namedTypeName(holder)
		if hf.inputs[unit][field.Sel.Name] && !isWiredFIFO(info.TypeOf(field)) && !lowers {
			pass.Reportf(call.Pos(), "%s pushes into %s, an input of %s, without lowering its key", name, target, unit)
		}
	}
}

// isWiredFIFO reports whether t is (a pointer to) a FIFO wired to a
// horizon key: a struct with key and gate fields.
func isWiredFIFO(t types.Type) bool {
	return structHasField(t, "key") && structHasField(t, "gate")
}

// isKeyTarget reports whether an assignment target is a horizon key: an
// hkey element or field, or a write through a *uint64.
func isKeyTarget(info *types.Info, lhs ast.Expr) bool {
	switch x := ast.Unparen(lhs).(type) {
	case *ast.IndexExpr:
		sel, ok := ast.Unparen(x.X).(*ast.SelectorExpr)
		return ok && sel.Sel.Name == "hkey"
	case *ast.SelectorExpr:
		return x.Sel.Name == "hkey"
	case *ast.StarExpr:
		ptr, ok := info.TypeOf(x.X).(*types.Pointer)
		if !ok {
			return false
		}
		basic, ok := ptr.Elem().(*types.Basic)
		return ok && basic.Kind() == types.Uint64
	}
	return false
}

// unitStepCall matches the statement `O.step(...)` on a unit O.
func unitStepCall(info *types.Info, stmt ast.Stmt) (*ast.CallExpr, string, bool) {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return nil, "", false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return nil, "", false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "step" || !structHasField(info.TypeOf(sel.X), "hid") {
		return nil, "", false
	}
	owner, ok := chainString(sel.X)
	return call, owner, ok
}

// isRekey matches the statement `P.hkey[owner.hid] = owner.nextEvent()`.
func isRekey(stmt ast.Stmt, owner string) bool {
	as, ok := stmt.(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	idx, ok := ast.Unparen(as.Lhs[0]).(*ast.IndexExpr)
	if !ok {
		return false
	}
	if sel, ok := ast.Unparen(idx.X).(*ast.SelectorExpr); !ok || sel.Sel.Name != "hkey" {
		return false
	}
	if slot, ok := chainString(idx.Index); !ok || slot != owner+".hid" {
		return false
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return false
	}
	callee, ok := chainString(call.Fun)
	return ok && callee == owner+".nextEvent"
}

// forEachStmtList calls f on every statement list in body: blocks and
// the bodies of case and select clauses.
func forEachStmtList(body *ast.BlockStmt, f func([]ast.Stmt)) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.BlockStmt:
			f(x.List)
		case *ast.CaseClause:
			f(x.Body)
		case *ast.CommClause:
			f(x.Body)
		}
		return true
	})
}

// isIdent reports whether e is the identifier name.
func isIdent(e ast.Expr, name string) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == name
}

// namedTypeName returns the name of a (pointer to a) named type, with no
// package or type arguments: *picos.regFIFO[T] -> "regFIFO".
func namedTypeName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}
