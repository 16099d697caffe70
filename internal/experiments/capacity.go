package experiments

import (
	"fmt"

	"repro/internal/patterns"
	"repro/internal/sim"
)

func init() {
	registerLane("capacity-map", CapacityMapData, CapacityTables)
}

// capacityFamilies are the dependence-pattern families the capacity map
// sweeps, ordered from local to global communication.
var capacityFamilies = []string{
	"no_comm", "stencil_1d", "stencil_1d_periodic", "stencil_2d", "wavefront",
	"nearest", "spread", "random_nearest", "fft", "tree", "dom", "all_to_all",
}

// capacityEngines are the engine columns of the per-engine view.
var capacityEngines = []string{"picos-hw", "picos-comm", "picos-full"}

// CapacityCell is one grid point of the capacity map, the
// BENCH_patterns.json record.
type CapacityCell struct {
	Family   string `json:"family"`
	Workload string `json:"workload"`
	Engine   string `json:"engine"`
	Design   string `json:"design"`
	Layout   string `json:"layout"`
	// NumDCT is the DCT shard count of the shard-capacity lane; zero
	// (omitted in JSON) marks the single-DCT capacity-map lanes.
	NumDCT int `json:"num_dct,omitempty"`
	// Wedge-frontier lane (wedge-frontier): the buffer-multiplicity and
	// dependence-fan knobs of the run. Zero (omitted in JSON) marks the
	// lanes that run the pattern families at their default fields/k.
	Fields int `json:"fields,omitempty"`
	K      int `json:"k,omitempty"`
	// Heterogeneous-scheduling lane (hetero-scaling): the worker-class
	// declaration, grant policy and steal flag of the run. Empty Classes
	// marks the homogeneous capacity/shard lanes.
	Classes string `json:"classes,omitempty"`
	Sched   string `json:"sched,omitempty"`
	Steal   bool   `json:"steal,omitempty"`
	// Resilience lane: the deterministic fault plan and recovery-policy
	// strings of the run (empty on fault-free lanes), with the outcome
	// accounting — the fraction of tasks that completed and the
	// lost/recovered/refused tallies behind it.
	FaultPlan          string  `json:"fault_plan,omitempty"`
	Recovery           string  `json:"recovery,omitempty"`
	Faulted            bool    `json:"faulted,omitempty"`
	TimedOut           bool    `json:"timed_out,omitempty"`
	CompletionFraction float64 `json:"completion_fraction,omitempty"`
	LostTasks          int     `json:"lost_tasks,omitempty"`
	RecoveredTasks     int     `json:"recovered_tasks,omitempty"`
	RefusedTasks       int     `json:"refused_tasks,omitempty"`

	Wedged           bool    `json:"wedged,omitempty"`
	WedgedAt         uint64  `json:"wedged_at,omitempty"`
	Makespan         uint64  `json:"makespan"`
	Speedup          float64 `json:"speedup"`
	SpeedupVsPerfect float64 `json:"speedup_vs_perfect"`

	DMConflicts           uint64 `json:"dm_conflicts"`
	VMStallEvents         uint64 `json:"vm_stall_events"`
	DMConflictStallCycles uint64 `json:"dm_conflict_stall_cycles"`
	VMStallCycles         uint64 `json:"vm_stall_cycles"`
}

// capacityPattern renders the sweep's workload spec for one family. The
// full-size 1-D grid is 128 points x 16 steps: 256 live buffers, enough
// to overflow the 8-way direct hash under the malloc layout (16
// reachable sets x 8 ways = 128) while the 16-way and Pearson designs
// still hold it — the same capacity cliff Table II shows for SparseLu.
// The 2-D families get a 16x8 grid, the same 128 points per step.
func capacityPattern(family, layout string, opt Options) string {
	width, steps, height := 128, 16, 0
	if family == "stencil_2d" || family == "wavefront" {
		width, height = 16, 8
	}
	if opt.Quick {
		width, steps = 12, 8
		if height > 0 {
			width, height = 4, 3
		}
	}
	s := fmt.Sprintf("%s%s?width=%d&steps=%d", sim.PatternPrefix, family, width, steps)
	if height > 0 {
		s += fmt.Sprintf("&height=%d", height)
	}
	if layout != patterns.DefaultLayout {
		s += "&layout=" + layout
	}
	return s
}

// CapacityMapData executes the capacity-map sweep: every pattern family
// x DM design x Picos engine under the default malloc address layout,
// plus a worst-case aligned-layout lane on picos-hw (where the wide
// families genuinely deadlock the 8-way direct hash — reported as
// wedged cells, not errors), normalized per family against the Perfect
// roofline.
func CapacityMapData(opt Options) ([]CapacityCell, error) {
	fams := capacityFamilies
	engines := capacityEngines
	if opt.Quick {
		fams = fams[:4]
		engines = engines[:1]
	}

	var pts []lanePoint
	add := func(family, engine, design, layout string) {
		pts = append(pts, lanePoint{
			spec: sim.Spec{Engine: engine, Workload: capacityPattern(family, layout, opt), Design: design},
			// The roofline is design- and layout-blind: every layout maps
			// point buffers to addresses injectively.
			roof: sim.Spec{Engine: "perfect", Workload: capacityPattern(family, patterns.DefaultLayout, opt)},
			cell: CapacityCell{Family: family, Design: design, Layout: layout},
		})
	}
	for _, f := range fams {
		for _, e := range engines {
			for _, d := range dmDesigns {
				add(f, e, d.spec, patterns.DefaultLayout)
			}
		}
	}
	if !opt.Quick {
		for _, f := range fams {
			for _, d := range dmDesigns {
				add(f, "picos-hw", d.spec, "aligned")
			}
		}
	}
	return runLane(opt, pts, false)
}

// capacityMetrics are the heatmap metrics of the capacity map.
var capacityMetrics = []struct {
	name string
	log  bool
	get  func(CapacityCell) float64
}{
	{"#DM conflicts (+VM stall events)", true, func(c CapacityCell) float64 {
		return float64(c.DMConflicts + c.VMStallEvents)
	}},
	{"DM+VM stall cycles", true, stallCycles},
	{"speedup vs perfect", false, vsPerfect},
}

// designLabel is the paper name of a DM design's spec spelling.
func designLabel(c CapacityCell) string {
	for _, d := range dmDesigns {
		if d.spec == c.Design {
			return d.label
		}
	}
	return c.Design
}

// CapacityTables renders capacity cells as tables: one per layout, rows
// = families, columns = DM designs on picos-hw, each carrying a heatmap
// per metric; and, with more than one engine, a per-engine speedup view
// at the shipping P+8way design. Wedged grid points print as
// WEDGE@<cycle>. Callers that also need the cells (the
// pattern-capacity-map example) run the sweep exactly once.
func CapacityTables(cells []CapacityCell) []*Table {
	var tables []*Table
	for _, layout := range distinct(cells, func(c CapacityCell) string { return c.Layout }) {
		v := view(cells, func(c CapacityCell) bool { return c.Engine == "picos-hw" && c.Layout == layout }, cellFamily, designLabel)
		t := v.table(
			fmt.Sprintf("Capacity map (%s layout, picos-hw): conflicts / stall cycles / speedup-vs-perfect per DM design", layout),
			"Family", stallText,
			"each cell: #conflicts (insertions that found their DM set full, +VM exhaustions) / cycles the registration path stalled / speedup normalized to the Perfect roofline")
		for _, m := range capacityMetrics {
			t.Heatmaps = append(t.Heatmaps, v.heatmap(fmt.Sprintf("capacity map: %s (picos-hw, %s layout)", m.name, layout), m.log, m.get))
		}
		tables = append(tables, t)
	}

	engines := view(cells, func(c CapacityCell) bool { return c.Design == "p8way" && c.Layout == patterns.DefaultLayout },
		cellFamily, func(c CapacityCell) string { return c.Engine })
	if len(engines.cols) > 1 {
		tables = append(tables, engines.table("Capacity map: speedup by engine (P+8way, malloc layout)", "Family",
			orWedge(func(c CapacityCell) string { return f2(c.Speedup) })))
	}
	return tables
}
