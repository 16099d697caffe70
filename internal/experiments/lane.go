package experiments

import (
	"fmt"
	"math"

	"repro/internal/asciiplot"
	"repro/internal/sim"
)

// lanePoint is one grid point of a pattern-family lane: the spec it
// runs, the Perfect roofline its speedup is normalized against (a zero
// Engine means none) and the fields that identify its cell.
type lanePoint struct {
	spec, roof sim.Spec
	cell       CapacityCell
}

// runLane runs every grid point of a lane plus each distinct roofline
// once, and returns the points' cells in grid order. A wedged point, or
// one whose roofline made no progress, keeps SpeedupVsPerfect at zero.
// outcomes fills the fault accounting (the resilience lane's cells).
func runLane(opt Options, pts []lanePoint, outcomes bool) ([]CapacityCell, error) {
	specs := make([]sim.Spec, len(pts))
	for i, p := range pts {
		specs[i] = p.spec
	}
	roofAt := map[sim.Spec]int{}
	for _, p := range pts {
		if _, seen := roofAt[p.roof]; p.roof.Engine != "" && !seen {
			roofAt[p.roof] = len(specs)
			specs = append(specs, p.roof)
		}
	}
	results, err := sweep(opt, specs)
	if err != nil {
		return nil, err
	}

	cells := make([]CapacityCell, len(pts))
	for i, p := range pts {
		res, c := results[i], p.cell
		c.Workload, c.Engine = p.spec.Workload, p.spec.Engine
		c.Wedged, c.WedgedAt = res.Wedged, res.WedgedAt
		c.Makespan, c.Speedup = res.Makespan, res.Speedup
		if st := res.Stats; st != nil {
			c.DMConflicts = st.DMConflicts
			c.VMStallEvents = st.VMStallEvents
			c.DMConflictStallCycles = st.DMConflictStallCycles
			c.VMStallCycles = st.VMStallCycles
		}
		if j, ok := roofAt[p.roof]; ok && !res.Wedged && results[j].Speedup > 0 {
			c.SpeedupVsPerfect = res.Speedup / results[j].Speedup
		}
		if outcomes {
			done := 0
			for _, f := range res.Finish {
				if f > 0 {
					done++
				}
			}
			c.CompletionFraction = float64(done) / float64(len(res.Finish))
			c.Faulted, c.TimedOut = res.Faulted, res.TimedOut
			c.LostTasks, c.RecoveredTasks, c.RefusedTasks = res.LostTasks, res.RecoveredTasks, res.RefusedTasks
		}
		cells[i] = c
	}
	return cells, nil
}

// registerLane registers a lane's sweep, rendered by its tables, as an
// experiment.
func registerLane(name string, data func(Options) ([]CapacityCell, error), tables func([]CapacityCell) []*Table) {
	Register(name, func(opt Options) ([]*Table, error) {
		cells, err := data(opt)
		if err != nil {
			return nil, err
		}
		return tables(cells), nil
	})
}

// laneView arranges the cells of one table or heatmap as a row x column
// grid, rows and columns labeled by their keys in first-seen order.
type laneView struct {
	rows, cols []string
	at         map[[2]string]CapacityCell
}

// view keeps the cells that pass keep and places each at its row and
// column key.
func view(cells []CapacityCell, keep func(CapacityCell) bool, row, col func(CapacityCell) string) *laneView {
	v := &laneView{at: map[[2]string]CapacityCell{}}
	for _, c := range cells {
		if !keep(c) {
			continue
		}
		r, k := row(c), col(c)
		v.rows = appendNew(v.rows, r)
		v.cols = appendNew(v.cols, k)
		v.at[[2]string{r, k}] = c
	}
	return v
}

// table renders the grid under corner and the column keys; a missing
// cell prints "-", any other its text.
func (v *laneView) table(title, corner string, text func(CapacityCell) string, notes ...string) *Table {
	t := &Table{Title: title, Header: append([]string{corner}, v.cols...), Notes: notes}
	for _, r := range v.rows {
		row := []string{r}
		for _, k := range v.cols {
			s := "-"
			if c, ok := v.at[[2]string{r, k}]; ok {
				s = text(c)
			}
			row = append(row, s)
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// heatmap renders one metric of the grid; missing and wedged cells are
// NaN, printed XX.
func (v *laneView) heatmap(title string, log bool, get func(CapacityCell) float64) *asciiplot.Heatmap {
	hm := &asciiplot.Heatmap{Title: title, XLabels: v.cols, YLabels: v.rows, Log: log, Missing: "XX"}
	for _, r := range v.rows {
		row := make([]float64, len(v.cols))
		for j, k := range v.cols {
			row[j] = math.NaN()
			if c, ok := v.at[[2]string{r, k}]; ok && !c.Wedged {
				row[j] = get(c)
			}
		}
		hm.Cells = append(hm.Cells, row)
	}
	return hm
}

// appendNew appends s to list unless list already holds it.
func appendNew(list []string, s string) []string {
	for _, have := range list {
		if have == s {
			return list
		}
	}
	return append(list, s)
}

// distinct lists the distinct keys of the cells in first-seen order.
func distinct(cells []CapacityCell, key func(CapacityCell) string) []string {
	var out []string
	for _, c := range cells {
		out = appendNew(out, key(c))
	}
	return out
}

// orWedge prints a wedged cell as WEDGE@<cycle> and any other through
// text.
func orWedge(text func(CapacityCell) string) func(CapacityCell) string {
	return func(c CapacityCell) string {
		if c.Wedged {
			return fmt.Sprintf("WEDGE@%d", c.WedgedAt)
		}
		return text(c)
	}
}

// stallText is the capacity-style cell: conflicts (+VM stall events) /
// DM+VM stall cycles / speedup vs perfect.
var stallText = orWedge(func(c CapacityCell) string {
	return fmt.Sprintf("%d / %.2g / %.2f", c.DMConflicts+c.VMStallEvents, stallCycles(c), c.SpeedupVsPerfect)
})

func stallCycles(c CapacityCell) float64 {
	return float64(c.DMConflictStallCycles + c.VMStallCycles)
}

func vsPerfect(c CapacityCell) float64 { return c.SpeedupVsPerfect }

func cellFamily(c CapacityCell) string { return c.Family }
func cellDesign(c CapacityCell) string { return c.Design }
