package experiments

import (
	"fmt"

	"repro/internal/patterns"
	"repro/internal/sim"
)

func init() {
	registerLane("hetero-scaling", HeteroScalingData, heteroTables)
}

// heteroMixes are the worker-class declarations the hetero-scaling
// sweep evaluates, all with 12 workers so the lanes are comparable to
// the paper's homogeneous platform: the baseline itself, two fast/slow
// splits of increasing imbalance, and a mix with a 4x-fast accelerator
// class that only runs the kinds it has an affinity for (pattern tasks
// are kinded by family, so the accel class sits idle unless the family
// matches — the cost of specialization the locality policy and stealing
// then have to work around).
var heteroMixes = []string{
	"12xbase",
	"8xfast+4xslow:2.0",
	"4xfast+8xslow:3.0",
	"7xbase+4xslow:2.0+1xaccel:0.25@stencil_2d,fft",
}

// heteroPolicies are the grant-policy lanes of the sweep.
var heteroPolicies = []string{"fifo", "priority", "locality"}

// heteroFamilies are the pattern families of the sweep: a local 1-D
// stencil (long chains, little slack), the 2-D stencil and fft (the
// kinds the accel mix is affine to) and the reduction tree (shrinking
// parallelism, where granting the wrong class hurts most).
var heteroFamilies = []string{"stencil_1d", "stencil_2d", "fft", "tree"}

// HeteroScalingData executes the hetero-scaling sweep: every class mix
// x grant policy x steal lane over the pattern families on picos-hw,
// each cell normalized against the class-weighted perfect roofline for
// the same mix (critical paths weighted by the best eligible class, so
// the bound is achievable on that platform — every lane must come out
// at SpeedupVsPerfect <= 1). The roofline is policy- and steal-blind:
// the oracle already grants each task its best eligible class.
func HeteroScalingData(opt Options) ([]CapacityCell, error) {
	mixes := heteroMixes
	fams := heteroFamilies
	if opt.Quick {
		mixes = []string{mixes[1], mixes[3]}
		// The quick pattern sizes are not powers of two, so fft is out;
		// stencil_2d keeps the accel mix's affinity lane meaningful.
		fams = []string{"stencil_1d", "stencil_2d"}
	}

	var pts []lanePoint
	for _, f := range fams {
		w := capacityPattern(f, patterns.DefaultLayout, opt)
		for _, m := range mixes {
			for _, pol := range heteroPolicies {
				for _, st := range []bool{false, true} {
					pts = append(pts, lanePoint{
						spec: sim.Spec{Engine: "picos-hw", Workload: w, WorkerClasses: m, Sched: pol, Steal: st},
						roof: sim.Spec{Engine: "perfect", Workload: w, WorkerClasses: m},
						cell: CapacityCell{Family: f, Design: "p8way", Layout: patterns.DefaultLayout, Classes: m, Sched: pol, Steal: st},
					})
				}
			}
		}
	}
	return runLane(opt, pts, false)
}

// heteroTables renders hetero cells as one table per class mix: rows =
// families, columns = policy x steal lanes, cell = speedup vs the
// class-weighted perfect roofline, with the same grid as a heatmap.
func heteroTables(cells []CapacityCell) []*Table {
	lane := func(c CapacityCell) string {
		if c.Steal {
			return c.Sched + "+steal"
		}
		return c.Sched
	}
	var tables []*Table
	for _, m := range distinct(cells, func(c CapacityCell) string { return c.Classes }) {
		v := view(cells, func(c CapacityCell) bool { return c.Classes == m }, cellFamily, lane)
		t := v.table(
			fmt.Sprintf("Hetero scaling (%s, picos-hw, malloc layout): speedup vs class-weighted perfect roofline per grant policy", m),
			"Family", orWedge(func(c CapacityCell) string { return f2(c.SpeedupVsPerfect) }),
			"roofline: zero-overhead list scheduler on the same class mix, critical path weighted by each task's best eligible class; 1.00 means the accelerator schedules as well as the oracle")
		t.Heatmaps = append(t.Heatmaps, v.heatmap(fmt.Sprintf("hetero scaling: speedup vs weighted perfect (%s, picos-hw)", m), false, vsPerfect))
		tables = append(tables, t)
	}
	return tables
}
