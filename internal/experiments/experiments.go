// Package experiments regenerates every table and figure of the paper's
// evaluation (Section V): Table I-IV and Figures 1, 8, 9, 10 and 11.
// Each experiment is a registry entry — a named function returning
// Tables, titled grids of formatted cells that print in the same layout
// as the paper, so paper-vs-reproduction comparison is a side-by-side
// read (recorded in EXPERIMENTS.md). All simulation goes through the
// sim engine registry; the worker sweeps run in parallel via sim.Sweep.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/asciiplot"
	"repro/internal/sim"

	_ "repro/internal/engines"
)

// Table is a printable experiment result. A pattern-family lane's
// table carries its grid as heatmaps too, rendered by Plot.
type Table struct {
	Title    string
	Header   []string
	Rows     [][]string
	Notes    []string
	Heatmaps []*asciiplot.Heatmap
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) error {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if _, err := fmt.Fprintf(w, "%s\n", t.Title); err != nil {
		return err
	}
	line := func(cells []string) error {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			pad := 0
			if i < len(widths) {
				pad = widths[i] - len(c)
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", pad))
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
		return err
	}
	if err := line(t.Header); err != nil {
		return err
	}
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", total)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := line(row); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// Options tunes experiment sizes. The zero value reproduces the paper's
// full configuration; Quick trims worker sweeps and block sizes for CI.
// CycleStepped forces every simulation onto the per-cycle reference loop
// instead of the event-driven fast path — the results are identical (the
// equivalence suite in internal/sim proves it); the knob exists for
// debugging and for benchmarking the fast path itself.
type Options struct {
	Quick        bool
	CycleStepped bool
}

// ExperimentFunc regenerates one experiment.
type ExperimentFunc func(Options) ([]*Table, error)

// Names lists the experiments in paper order, then the pattern-family
// lanes. Every name is backed by a registry entry, registered from the
// file that defines it.
var Names = []string{
	"table1", "table2", "table3", "table4",
	"fig1", "fig8", "fig9", "fig10", "fig11",
	"capacity-map", "wedge-frontier", "shard-capacity", "hetero-scaling", "resilience",
}

var registry = map[string]ExperimentFunc{}

// FastPathSensitive reports whether an experiment runs any simulation
// that branches on the fast-path knob (the Picos HIL engines). Table I
// only generates traces, Table III evaluates the analytic resource
// model, and Figures 1 and 10 run the inherently event-driven nanos
// model — for those, a "fast vs cycle-stepped" timing comparison times
// the identical computation twice, and any measured ratio is machine
// noise, not a property of the scheduler (picos-bench -json reports
// exactly 1.0 for them instead of a coin flip).
func FastPathSensitive(name string) bool {
	switch name {
	case "table1", "table3", "fig1", "fig10":
		return false
	}
	return true
}

// Register adds an experiment to the registry; like sim.Register it
// panics on a duplicate name, which is an init-time programming error.
func Register(name string, fn ExperimentFunc) {
	if name == "" {
		panic("experiments: Register called with an empty name")
	}
	if _, dup := registry[name]; dup {
		panic("experiments: duplicate experiment registration: " + name)
	}
	registry[name] = fn
}

// Run executes one experiment by registry name.
func Run(name string, opt Options) ([]*Table, error) {
	fn, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %s)", name, strings.Join(Names, ", "))
	}
	return fn(opt)
}

// sweep expands nothing — it executes prebuilt specs on the sim worker
// pool and returns the results in spec order, failing on the first
// errored grid point. Options that apply uniformly to every grid point
// (the fast-path knob) are stamped here so individual experiments never
// have to thread them.
func sweep(opt Options, specs []sim.Spec) ([]*sim.Result, error) {
	if opt.CycleStepped {
		off := sim.Bool(false)
		for i := range specs {
			specs[i].FastForward = off
		}
	}
	out := make([]*sim.Result, len(specs))
	for _, it := range sim.Sweep(specs, 0) {
		if it.Err != "" {
			return nil, fmt.Errorf("experiments: %s on %s: %s", it.Spec.Engine, it.Spec.Workload, it.Err)
		}
		out[it.Index] = it.Result
	}
	return out, nil
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func e2(v float64) string { return fmt.Sprintf("%.2e", v) }
func d(v uint64) string   { return fmt.Sprintf("%d", v) }
