// Package lint is a stdlib-only static-analysis framework purpose-built
// for this repository: it loads every package of a module with go/parser
// and go/types (no go/packages, no x/tools), runs a fixed suite of
// analyzers over the type-checked syntax, and enforces the simulator's
// correctness invariants — determinism of everything under internal/,
// the key discipline of the push-maintained event horizon, the
// zero-allocation contract of //picos:hotpath functions, full threading
// of every sim.Spec knob, and errors.Is discipline for sentinel errors —
// at build time instead of at test time.
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis in
// miniature (Analyzer, Pass, positional diagnostics, a `// want`
// expectation harness) so the analyzers read familiarly, but depends on
// nothing outside the standard library: the module is loaded by walking
// the tree, parsing, topologically sorting by imports and type-checking
// with a source-based importer for the standard library.
//
// Findings are suppressed in place with
//
//	//lint:ignore <analyzer> <reason>
//
// on the offending line or the line directly above it. The reason is
// mandatory — a bare ignore is itself a finding — and an ignore that
// matches no finding is reported as stale, so the suppression set can
// never silently outlive the code it excuses.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Package is one loaded, type-checked package of a module.
type Package struct {
	// Path is the import path ("repro/internal/picos").
	Path string
	// Dir is the absolute directory the files were read from.
	Dir string
	// Name is the package name ("picos"); "main" for commands.
	Name string
	// Files holds the parsed non-test files, sorted by file name.
	Files []*ast.File
	// Types and Info hold the go/types results for the package.
	Types *types.Package
	Info  *types.Info
}

// IsCommand reports whether the package builds a binary.
func (p *Package) IsCommand() bool { return p.Name == "main" }

// Suite is a loaded module plus everything the analyzers accumulate
// while walking it: per-package type information, cross-package facts
// (keyed by analyzer) and the suppression table.
type Suite struct {
	// Fset is the file set every position in the suite resolves against.
	Fset *token.FileSet
	// ModulePath is the module path from go.mod ("repro").
	ModulePath string
	// Root is the absolute module root directory.
	Root string
	// Packages lists every loaded package in dependency (topological)
	// order, ties broken by import path, so an analyzer always sees a
	// package after all packages it imports.
	Packages []*Package

	// facts is scratch shared by one analyzer across packages (specknob
	// collects the Spec shape from internal/sim before it checks the
	// engine adapters).
	facts map[string]any

	suppressions []*suppression
	diags        []Diagnostic
}

// Fact returns the analyzer's cross-package scratch value, creating it
// with mk on first use.
func (s *Suite) Fact(analyzer string, mk func() any) any {
	if s.facts == nil {
		s.facts = map[string]any{}
	}
	v, ok := s.facts[analyzer]
	if !ok {
		v = mk()
		s.facts[analyzer] = v
	}
	return v
}

// Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	// File is the path relative to the module root where possible.
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
}

// String renders the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Analyzer is one named invariant checker.
type Analyzer struct {
	// Name keys the analyzer in -run lists and //lint:ignore comments.
	Name string
	// Doc is the one-line description shown by the driver.
	Doc string
	// Applies gates which packages Run sees; nil means every package.
	Applies func(p *Package) bool
	// Run checks one package.
	Run func(pass *Pass)
	// Finish, if set, runs once after every package has been analyzed —
	// the hook for whole-module checks like specknob's CLI-coverage
	// accounting.
	Finish func(pass *Pass)
}

// Pass hands one analyzer its per-package (or, for Finish, per-suite)
// context and the reporting function.
type Pass struct {
	Suite    *Suite
	Analyzer *Analyzer
	// Pkg is the package under analysis; nil during Finish.
	Pkg *Package
}

// Reportf records a finding at pos unless a matching //lint:ignore
// suppression covers it.
func (pass *Pass) Reportf(pos token.Pos, format string, args ...any) {
	s := pass.Suite
	position := s.Fset.Position(pos)
	if s.suppressed(pass.Analyzer.Name, position) {
		return
	}
	s.diags = append(s.diags, Diagnostic{
		Analyzer: pass.Analyzer.Name,
		File:     s.relPath(position.Filename),
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run executes the analyzers over every package of the suite, then the
// Finish hooks, then the suppression hygiene checks (bare ignores and
// ignores that matched nothing are findings of their own). It returns
// the findings sorted by file, line and analyzer.
func (s *Suite) Run(analyzers []*Analyzer) []Diagnostic {
	s.diags = nil
	for _, su := range s.suppressions {
		su.used = false
	}
	for _, a := range analyzers {
		for _, pkg := range s.Packages {
			if a.Applies != nil && !a.Applies(pkg) {
				continue
			}
			a.Run(&Pass{Suite: s, Analyzer: a, Pkg: pkg})
		}
	}
	for _, a := range analyzers {
		if a.Finish != nil {
			a.Finish(&Pass{Suite: s, Analyzer: a})
		}
	}
	s.checkSuppressions(analyzers)
	sort.Slice(s.diags, func(i, j int) bool {
		a, b := s.diags[i], s.diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return s.diags
}

// relPath strips the module root prefix for stable, portable output.
func (s *Suite) relPath(filename string) string {
	root := s.Root
	if root != "" && len(filename) > len(root)+1 && filename[:len(root)] == root {
		return filename[len(root)+1:]
	}
	return filename
}
