package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// MaterializeWall guards the streaming-ingestion contract: engines feed
// from a trace.Source under a bounded descriptor window, so arbitrarily
// long replays run in O(window) heap — unless some code path quietly
// calls trace.Materialize and folds the whole graph back into memory.
// One stray call turns the heap-bound guarantee into a fiction while
// every test still passes (small graphs materialize without anyone
// noticing).
//
// The wall: trace.Materialize (call or function value) is allowed only
// at the sanctioned whole-graph sites —
//
//   - internal/sim: RunSource at Window == 0, where the engine records
//     the schedule of the whole graph, and BuildWorkload, whose contract
//     is a whole trace (a pattern workload is its Generate stream folded
//     by Materialize)
//   - internal/perfect: the critical-path roofline needs a backward
//     pass over the finished graph, an inherently multi-pass consumer
//   - cmd/picos-trace: serializing a whole trace to disk is the tool's
//     purpose
//
// plus internal/trace itself (the defining package). Test files never
// reach the analyzer (the loader parses non-test files only), so tests
// materialize freely.
var MaterializeWall = &Analyzer{
	Name:    "materializewall",
	Doc:     "restrict trace.Materialize to the sanctioned whole-graph sites",
	Applies: appliesOutsideMaterializeSanctuary,
	Run:     runMaterializeWall,
}

// materializeSanctioned lists the module-relative package paths allowed
// to materialize a Source, with the reason each is exempt.
var materializeSanctioned = []string{
	"internal/trace",   // the defining package
	"internal/sim",     // RunSource at Window == 0; BuildWorkload's whole-trace contract
	"internal/perfect", // multi-pass critical-path roofline
	"cmd/picos-trace",  // whole-trace serialization is the tool's purpose
}

func appliesOutsideMaterializeSanctuary(p *Package) bool {
	for _, s := range materializeSanctioned {
		if p.Path == s || strings.HasSuffix(p.Path, "/"+s) {
			return false
		}
	}
	return true
}

func runMaterializeWall(pass *Pass) {
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			// Resolving the *object* (not the call shape) catches both
			// trace.Materialize(...) and the function-value form that a
			// helper variable would hide.
			fn, ok := info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Name() != "Materialize" || fn.Pkg() == nil {
				return true
			}
			path := fn.Pkg().Path()
			if path != "internal/trace" && !strings.HasSuffix(path, "/internal/trace") {
				return true
			}
			pass.Reportf(sel.Pos(),
				"trace.Materialize folds the whole graph into memory, breaking the O(window) streaming contract; feed from the trace.Source instead (sanctioned sites: %s)",
				strings.Join(materializeSanctioned[1:], ", "))
			return true
		})
	}
}
