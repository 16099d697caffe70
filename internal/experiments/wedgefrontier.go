package experiments

import (
	"fmt"

	"repro/internal/patterns"
	"repro/internal/sim"
)

func init() {
	registerLane("wedge-frontier", WedgeFrontierData, wedgeTables)
}

// The wedge-frontier sweep charts where each DM design stops being able
// to hold a task's dependence set at all: the nearest family under the
// worst-case aligned layout clusters every point buffer into a single
// direct-hash set, so the k knob (the read-window width, hence the
// per-task dependence count) walks straight into the design's
// associativity while the fields knob switches between double-buffered
// reads (fields=2, task-bench's default) and the in-place fields=1
// variant whose buffers accumulate one VM version per step — the
// heavier stress on the version chains. Somewhere along each axis a
// design's admitted-but-unregistrable tasks turn from conflict stalls
// into a proven deadlock; that boundary is the design's wedge frontier.
var (
	wedgeKs     = []int{1, 3, 5, 7, 9, 11, 13}
	wedgeFields = []int{1, 2}
)

// wedgeFamily is the swept pattern family: nearest reads the k-wide
// window of previous-step points centered on each point, making k the
// direct dependence-fan knob (deps per task = window + the owner).
const wedgeFamily = "nearest"

// wedgePattern renders the sweep's workload spec for one (fields, k)
// grid point. The row is wide enough that the largest window never
// clamps at the edges for most points, and short enough that a full
// (non-wedged) run stays cheap.
func wedgePattern(fields, k int, layout string, opt Options) string {
	width, steps := 64, 8
	if opt.Quick {
		width, steps = 16, 4
	}
	s := fmt.Sprintf("%s%s?width=%d&steps=%d&k=%d&fields=%d",
		sim.PatternPrefix, wedgeFamily, width, steps, k, fields)
	if layout != patterns.DefaultLayout {
		s += "&layout=" + layout
	}
	return s
}

// WedgeFrontierData executes the wedge-frontier sweep: fields x k x DM
// design on picos-hw under the worst-case aligned layout, normalized
// per (fields, k) against the Perfect roofline (which is layout- and
// design-blind: every layout maps point buffers to addresses
// injectively, so the dependence graph is identical). Deadlocking grid
// points surface as wedged cells, not errors — the frontier IS the
// result. Cells carry Fields and K, distinguishing this lane in
// BENCH_patterns.json from the default-parameter capacity map.
func WedgeFrontierData(opt Options) ([]CapacityCell, error) {
	ks := wedgeKs
	if opt.Quick {
		ks = []int{3, 13}
	}

	var pts []lanePoint
	for _, d := range dmDesigns {
		for _, f := range wedgeFields {
			for _, k := range ks {
				pts = append(pts, lanePoint{
					spec: sim.Spec{Engine: "picos-hw", Workload: wedgePattern(f, k, "aligned", opt), Design: d.spec},
					roof: sim.Spec{Engine: "perfect", Workload: wedgePattern(f, k, patterns.DefaultLayout, opt)},
					cell: CapacityCell{Family: wedgeFamily, Design: d.spec, Layout: "aligned", Fields: f, K: k},
				})
			}
		}
	}
	return runLane(opt, pts, false)
}

// wedgeTables renders wedge-frontier cells as one table per DM design,
// rows = fields, columns = k values, wedged grid points printing as
// WEDGE@<cycle> so each design's frontier reads directly off the row.
// Each carries a fields x k speedup-vs-perfect heatmap whose XX band is
// the frontier at a glance.
func wedgeTables(cells []CapacityCell) []*Table {
	var tables []*Table
	for _, d := range distinct(cells, cellDesign) {
		keep := func(c CapacityCell) bool { return c.Design == d }
		t := view(cells, keep,
			func(c CapacityCell) string { return fmt.Sprintf("%d", c.Fields) },
			func(c CapacityCell) string { return fmt.Sprintf("k=%d", c.K) },
		).table(
			fmt.Sprintf("Wedge frontier (%s, picos-hw, nearest family, aligned layout): conflicts / stall cycles / speedup-vs-perfect per dependence fan", d),
			"Fields", stallText,
			"aligned layout clusters every point buffer into one direct-hash set, so k (the read-window width) walks straight into the design's associativity; the first WEDGE column is the design's frontier")
		hv := view(cells, keep,
			func(c CapacityCell) string { return fmt.Sprintf("fields=%d", c.Fields) },
			func(c CapacityCell) string { return fmt.Sprintf("k%d", c.K) })
		t.Heatmaps = append(t.Heatmaps, hv.heatmap(fmt.Sprintf("wedge frontier: speedup vs perfect (%s, picos-hw, aligned layout)", d), false, vsPerfect))
		tables = append(tables, t)
	}
	return tables
}
