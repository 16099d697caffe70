// Pattern capacity map: sweep the parameterized dependence-pattern
// families (internal/patterns) against the three Dependence Memory
// designs and the three Picos integration modes, render the result as
// ASCII heatmaps of DM conflicts, stall cycles and speedup-vs-perfect,
// and emit the machine-readable BENCH_patterns.json. Deadlocking grid
// points (the wide families under worst-case aligned clustering on the
// 8-way direct hash) surface as wedged cells, not errors.
//
// The JSON also carries the shard-capacity lane (cells with a non-zero
// num_dct — the same families under a sharded DCT fabric, where the
// design's capacity is partitioned across shards) and the
// hetero-scaling lane (cells with a non-empty classes field —
// heterogeneous worker-class mixes x grant policies x stealing against
// the class-weighted perfect roofline) and the resilience lane (cells
// with a non-empty fault_plan or recovery field — deterministic AXI
// drop rates x recovery policies with the software runtime as control
// arm) and the wedge-frontier lane (cells with non-zero fields/k — the
// dependence-fan sweep that charts where each DM design deadlocks under
// worst-case address clustering). This example is the single producer
// of BENCH_patterns.json; every lane renders as tables and heatmaps via
// picos-bench -exp <lane> -plot.
//
//	go run ./examples/pattern-capacity-map            # full map + JSON
//	go run ./examples/pattern-capacity-map -quick     # reduced grid
//	go run ./examples/pattern-capacity-map -out ""    # skip the JSON
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "reduced grid (fewer families, picos-hw only)")
	out := flag.String("out", "BENCH_patterns.json", "write the capacity cells as JSON here (empty: skip)")
	flag.Parse()

	opt := experiments.Options{Quick: *quick}
	cells, err := experiments.CapacityMapData(opt)
	if err != nil {
		log.Fatal(err)
	}

	for _, t := range experiments.CapacityTables(cells) {
		if err := t.Fprint(os.Stdout); err != nil {
			log.Fatal(err)
		}
		if err := t.Plot(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}

	// The other lanes ride along in the same JSON, keeping this example
	// the single producer of BENCH_patterns.json; here they are data only.
	shardCells, err := experiments.ShardCapacityData(opt)
	if err != nil {
		log.Fatal(err)
	}
	cells = append(cells, shardCells...)
	heteroCells, err := experiments.HeteroScalingData(opt)
	if err != nil {
		log.Fatal(err)
	}
	cells = append(cells, heteroCells...)
	resilienceCells, err := experiments.ResilienceData(opt)
	if err != nil {
		log.Fatal(err)
	}
	cells = append(cells, resilienceCells...)
	wedgeCells, err := experiments.WedgeFrontierData(opt)
	if err != nil {
		log.Fatal(err)
	}
	cells = append(cells, wedgeCells...)

	wedged := 0
	for _, c := range cells {
		if c.Wedged {
			wedged++
		}
	}
	fmt.Printf("%d grid points, %d wedged (proven deadlocks, reported structurally)\n", len(cells), wedged)

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(cells); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
}
