// Command picoslint runs the repository's analyzer suite (internal/lint)
// over the module: determinism of internal packages, the key discipline
// of the event horizon, the //picos:hotpath zero-allocation
// contract, sim.Spec knob threading and errors.Is discipline for
// sentinel errors.
//
// Usage:
//
//	picoslint ./...
//	picoslint -run determinism,hotalloc ./...
//	picoslint -json ./... | jq .
//	picoslint -list
//
// The module containing the argument directory (default ".") is always
// loaded and type-checked whole — the analyzers are cross-package — and
// the package patterns select which packages' findings are reported.
// Exit status: 0 clean, 1 findings, 2 usage or load failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	var (
		runList  = flag.String("run", "", "comma-separated analyzer names to run (default: all)")
		jsonOut  = flag.Bool("json", false, "emit findings as a JSON array on stdout")
		listOnly = flag.Bool("list", false, "list the registered analyzers and exit")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: picoslint [-run a,b] [-json] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *listOnly {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers, err := selectAnalyzers(*runList)
	if err != nil {
		fmt.Fprintf(os.Stderr, "picoslint: %v\n", err)
		os.Exit(2)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	root, err := moduleRoot(patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "picoslint: %v\n", err)
		os.Exit(2)
	}

	suite, err := lint.Load(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "picoslint: %v\n", err)
		os.Exit(2)
	}
	diags := suite.Run(analyzers)

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintf(os.Stderr, "picoslint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d.String())
		}
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// selectAnalyzers resolves the -run list against the registry.
func selectAnalyzers(runList string) ([]*lint.Analyzer, error) {
	all := lint.Analyzers()
	if runList == "" {
		return all, nil
	}
	byName := map[string]*lint.Analyzer{}
	var names []string
	for _, a := range all {
		byName[a.Name] = a
		names = append(names, a.Name)
	}
	var picked []*lint.Analyzer
	for _, name := range strings.Split(runList, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (have: %s)", name, strings.Join(names, ", "))
		}
		picked = append(picked, a)
	}
	if len(picked) == 0 {
		return nil, fmt.Errorf("-run selected no analyzers")
	}
	return picked, nil
}

// moduleRoot finds the go.mod directory containing the first package
// pattern. The analyzers are cross-package (specknob accounts over the
// whole module), so the whole module is always loaded regardless of how
// narrow the pattern is.
func moduleRoot(patterns []string) (string, error) {
	dir := strings.TrimSuffix(patterns[0], "...")
	dir = strings.TrimSuffix(dir, "/")
	if dir == "" {
		dir = "."
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod found above %s", abs)
		}
		d = parent
	}
}
