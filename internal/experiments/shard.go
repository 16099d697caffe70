package experiments

import (
	"fmt"

	"repro/internal/patterns"
	"repro/internal/sim"
)

func init() {
	registerLane("shard-capacity", ShardCapacityData, shardTables)
}

// shardCounts are the DCT shard counts the shard-capacity sweep
// evaluates. Sharding partitions the design's DM sets (and with them the
// VM) across shards, so the interesting axis is how much per-shard
// associative capacity a pattern family needs before the partition
// starts costing conflicts — 8 shards leave an 8-way design only 8 sets
// per shard.
var shardCounts = []int{1, 2, 4, 8}

// shardFamilies are the pattern families of the shard sweep, picked to
// span address locality: a 1-D stencil reuses few addresses, wavefront
// and spread widen the live set, all_to_all touches everything every
// step and maximizes inter-shard spread.
var shardFamilies = []string{"stencil_1d", "wavefront", "spread", "all_to_all"}

// ShardCapacityData executes the shard-capacity sweep: every shard
// count x DM design (sets x ways shape) x pattern family on picos-hw
// under the default malloc layout, normalized per family against the
// Perfect roofline (design- and shard-blind). Cells carry NumDCT,
// distinguishing this lane from the single-DCT capacity map in
// BENCH_patterns.json.
func ShardCapacityData(opt Options) ([]CapacityCell, error) {
	fams := shardFamilies
	shards := shardCounts
	designs := dmDesigns
	if opt.Quick {
		fams = fams[:2]
		shards = []int{1, 4}
		designs = designs[2:] // shipping P+8way only
	}

	var pts []lanePoint
	for _, f := range fams {
		w := capacityPattern(f, patterns.DefaultLayout, opt)
		for _, d := range designs {
			for _, n := range shards {
				pts = append(pts, lanePoint{
					spec: sim.Spec{Engine: "picos-hw", Workload: w, Design: d.spec, NumDCT: n},
					roof: sim.Spec{Engine: "perfect", Workload: w},
					cell: CapacityCell{Family: f, Design: d.spec, Layout: patterns.DefaultLayout, NumDCT: n},
				})
			}
		}
	}
	return runLane(opt, pts, false)
}

// shardTables renders shard cells as one table per DM design, rows =
// families, columns = shard counts. Each carries a speedup-vs-perfect
// heatmap, and the shipping P+8way table the stall-cycle cost too.
func shardTables(cells []CapacityCell) []*Table {
	var tables []*Table
	for _, d := range distinct(cells, cellDesign) {
		keep := func(c CapacityCell) bool { return c.Design == d }
		t := view(cells, keep, cellFamily, func(c CapacityCell) string { return fmt.Sprintf("%d shards", c.NumDCT) }).table(
			fmt.Sprintf("Shard capacity (%s, picos-hw, malloc layout): conflicts / stall cycles / speedup-vs-perfect per shard count", d),
			"Family", stallText,
			"sharding partitions the design's DM sets and VM across shards (capacity is divided, not multiplied); inter-shard traffic pays the chained shard-hop latency")
		hv := view(cells, keep, cellFamily, func(c CapacityCell) string { return fmt.Sprintf("%dsh", c.NumDCT) })
		t.Heatmaps = append(t.Heatmaps, hv.heatmap(fmt.Sprintf("shard capacity: speedup vs perfect (%s, picos-hw)", d), false, vsPerfect))
		if d == "p8way" {
			t.Heatmaps = append(t.Heatmaps, hv.heatmap("shard capacity: DM+VM stall cycles (p8way, picos-hw)", true, stallCycles))
		}
		tables = append(tables, t)
	}
	return tables
}
