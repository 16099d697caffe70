package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotPathDirective marks a function as allocation-free by contract: the
// warm-engine reuse path (picos.Reset + RunTo) is benchmarked at zero
// allocs/op and the equivalence matrix re-runs every spec hundreds of
// times, so a single allocation sneaking into the per-cycle loop is a
// measurable regression. internal/picos/alloc_test.go asserts the
// end-to-end property; this analyzer localizes it to the functions that
// actually carry the contract.
const HotPathDirective = "//picos:hotpath"

// HotAlloc rejects allocating constructs inside functions annotated
// //picos:hotpath:
//
//   - composite literals taken by address (&T{...}) and new(T): direct
//     heap candidates,
//   - slice and map literals ([]T{...}, map[K]V{...}): always allocate
//     backing storage,
//   - make(...): allocates backing storage,
//   - function literals: even non-escaping closures cost a context
//     struct when they capture, and escape analysis is too fragile a
//     thing to lean on silently in a hot loop — a non-escaping closure
//     is allowed only with an explicit //lint:ignore hotalloc,
//   - fmt.* calls: allocate and box via reflection,
//   - interface boxing: passing or assigning a concrete value where an
//     interface is expected,
//   - writes through a map index (m[k] = v, m[k] op= v, m[k]++): an
//     insert can grow the map and allocate. Reads are allowed.
//
// Plain value struct literals (T{...} assigned into existing storage)
// and append into preallocated slices are allowed: they copy into
// storage the caller owns and do not inherently allocate.
var HotAlloc = &Analyzer{
	Name:    "hotalloc",
	Doc:     "functions marked //picos:hotpath may not contain allocating constructs",
	Applies: func(p *Package) bool { return !p.IsCommand() },
	Run:     runHotAlloc,
}

func runHotAlloc(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !hasDirective(fn.Doc, HotPathDirective) {
				continue
			}
			checkHotFunc(pass, fn)
		}
	}
}

func checkHotFunc(pass *Pass, fn *ast.FuncDecl) {
	info := pass.Pkg.Info
	name := fn.Name.Name
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.UnaryExpr:
			if node.Op.String() == "&" {
				if _, isLit := ast.Unparen(node.X).(*ast.CompositeLit); isLit {
					pass.Reportf(node.Pos(), "%s is //picos:hotpath but takes the address of a composite literal (heap allocation)", name)
				}
			}
		case *ast.CompositeLit:
			t := info.TypeOf(node)
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Slice:
				if len(node.Elts) > 0 {
					pass.Reportf(node.Pos(), "%s is //picos:hotpath but builds a slice literal (allocates backing array)", name)
				}
			case *types.Map:
				pass.Reportf(node.Pos(), "%s is //picos:hotpath but builds a map literal (allocates)", name)
			}
		case *ast.FuncLit:
			pass.Reportf(node.Pos(), "%s is //picos:hotpath but declares a func literal; closures cost a context allocation when they capture (//lint:ignore hotalloc with proof it does not escape, or hoist it)", name)
			return false // don't descend: the closure body is not the hot body
		case *ast.CallExpr:
			checkHotCall(pass, info, name, node)
		case *ast.AssignStmt:
			for _, lhs := range node.Lhs {
				checkMapWrite(pass, info, name, lhs)
			}
			if tuple, ok := info.TypeOf(node.Rhs[0]).(*types.Tuple); ok {
				// v, ok = f(): each target takes its own result.
				for i, lhs := range node.Lhs {
					checkBoxing(pass, name, info.TypeOf(lhs), tuple.At(i).Type(), node.Rhs[0].Pos())
				}
			} else {
				for i, rhs := range node.Rhs {
					if i < len(node.Lhs) {
						checkBoxing(pass, name, info.TypeOf(node.Lhs[i]), info.TypeOf(rhs), rhs.Pos())
					}
				}
			}
		case *ast.IncDecStmt:
			checkMapWrite(pass, info, name, node.X)
		}
		return true
	})
}

// checkMapWrite flags an assignment target that indexes a map.
func checkMapWrite(pass *Pass, info *types.Info, name string, lhs ast.Expr) {
	ix, ok := ast.Unparen(lhs).(*ast.IndexExpr)
	if !ok {
		return
	}
	if t := info.TypeOf(ix.X); t != nil {
		if _, isMap := t.Underlying().(*types.Map); isMap {
			pass.Reportf(lhs.Pos(), "%s is //picos:hotpath but writes through a map index (an insert can grow the map and allocate)", name)
		}
	}
}

// checkHotCall flags new(T), fmt.* and interface boxing at call
// boundaries inside a hot function.
func checkHotCall(pass *Pass, info *types.Info, name string, call *ast.CallExpr) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "new" {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			pass.Reportf(call.Pos(), "%s is //picos:hotpath but calls new(...) (heap allocation)", name)
			return
		}
	}
	if pkgPath, fname, ok := calleePkgFunc(info, call); ok && pkgPath == "fmt" {
		pass.Reportf(call.Pos(), "%s is //picos:hotpath but calls fmt.%s (allocates and boxes through reflection)", name, fname)
		return
	}
	// Interface boxing in arguments: a concrete value passed where the
	// callee expects an interface.
	sig := signatureOf(info, call.Fun)
	if sig == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		if sig.Variadic() && i >= params.Len()-1 {
			if call.Ellipsis.IsValid() {
				continue // s... passes the slice through, no per-element boxing
			}
			last := params.At(params.Len() - 1).Type()
			if sl, ok := last.(*types.Slice); ok {
				pt = sl.Elem()
			}
		} else if i < params.Len() {
			pt = params.At(i).Type()
		}
		checkBoxing(pass, name, pt, info.TypeOf(arg), arg.Pos())
	}
}

// checkBoxing reports a concrete (non-pointer-shaped) value of type vt
// converted to an interface type target — the conversion heap-allocates
// the boxed copy. A type-parameter target is not an interface, even
// though its underlying type is its constraint: a value stored there
// keeps its own type.
func checkBoxing(pass *Pass, name string, target, vt types.Type, pos token.Pos) {
	if target == nil || vt == nil {
		return
	}
	if _, isTypeParam := target.(*types.TypeParam); isTypeParam {
		return
	}
	if _, ok := target.Underlying().(*types.Interface); !ok {
		return
	}
	if _, alreadyIface := vt.Underlying().(*types.Interface); alreadyIface {
		return
	}
	if isUntypedNil(vt) {
		return
	}
	// Pointers box without allocating (the pointer word fits the iface
	// data slot); values of any other kind escape into a heap copy.
	if _, isPtr := vt.Underlying().(*types.Pointer); isPtr {
		return
	}
	pass.Reportf(pos, "%s is //picos:hotpath but boxes a %s into an interface (heap-allocates the copy)", name, vt.String())
}

func isUntypedNil(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}

// signatureOf resolves the *types.Signature of a call target; nil for
// builtins and type conversions.
func signatureOf(info *types.Info, fun ast.Expr) *types.Signature {
	t := info.TypeOf(ast.Unparen(fun))
	if t == nil {
		return nil
	}
	sig, _ := t.Underlying().(*types.Signature)
	return sig
}
