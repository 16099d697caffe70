package experiments

import (
	"fmt"

	"repro/internal/patterns"
	"repro/internal/sim"
)

func init() {
	registerLane("resilience", ResilienceData, resilienceTables)
}

// resilienceRates are the AXI drop probabilities of the sweep; 0 is the
// fault-free baseline lane.
var resilienceRates = []float64{0, 0.005, 0.01}

// resilienceRecoveries are the recovery-policy lanes: none (drops are
// permanently lost) and bounded retransmission with deterministic
// backoff.
var resilienceRecoveries = []string{"", "retry=3:backoff200"}

// resilienceFamilies are the pattern families of the sweep: a local
// 1-D stencil (long dependence chains, where one lost message strands a
// whole column) and the reduction tree (a lost task near the root loses
// the run).
var resilienceFamilies = []string{"stencil_1d", "tree"}

// resilienceFaultPlan renders the drop-rate clause; rate 0 is the
// fault-free lane (no plan at all, so the run takes the nil-gated hot
// path the equivalence suite proves byte-identical).
func resilienceFaultPlan(rate float64) string {
	if rate == 0 {
		return ""
	}
	return fmt.Sprintf("axi:drop=%g@seed7", rate)
}

// ResilienceData executes the resilience sweep: fault rate x recovery
// policy x {picos-full, nanos} over the pattern families. picos-full is
// the system under test — its AXI link is where the drops land — and
// nanos is the control arm: the software runtime has no link and no
// fault layer (the spec's fault knobs are disclaimed), so its lanes pin
// completion fraction 1.0 at every rate, isolating the fault effect
// from the workload.
func ResilienceData(opt Options) ([]CapacityCell, error) {
	rates := resilienceRates
	fams := resilienceFamilies
	engines := []string{"picos-full", "nanos"}
	if opt.Quick {
		rates = []float64{0, 0.01}
		fams = fams[:1]
	}

	var pts []lanePoint
	for _, f := range fams {
		w := capacityPattern(f, patterns.DefaultLayout, opt)
		for _, e := range engines {
			for _, rate := range rates {
				for _, rec := range resilienceRecoveries {
					plan := resilienceFaultPlan(rate)
					pts = append(pts, lanePoint{
						spec: sim.Spec{Engine: e, Workload: w, Faults: plan, Recovery: rec},
						cell: CapacityCell{Family: f, Design: "p8way", Layout: patterns.DefaultLayout, FaultPlan: plan, Recovery: rec},
					})
				}
			}
		}
	}
	return runLane(opt, pts, true)
}

// resilienceLane renders one rate x recovery combination as a column
// label.
func resilienceLane(c CapacityCell) string {
	rate := c.FaultPlan
	if rate == "" {
		rate = "fault-free"
	}
	if c.Recovery == "" {
		return rate
	}
	return rate + " +" + c.Recovery
}

// resilienceText is a resilience cell: the completion fraction with the
// loss accounting, marked when the run wedged on its losses.
func resilienceText(c CapacityCell) string {
	s := fmt.Sprintf("%.3f", c.CompletionFraction)
	if c.LostTasks > 0 || c.RecoveredTasks > 0 {
		s += fmt.Sprintf(" (lost %d, rec %d)", c.LostTasks, c.RecoveredTasks)
	}
	if c.Wedged {
		s += " WEDGE"
	}
	return s
}

// resilienceTables renders resilience cells as one table per engine:
// rows = families, columns = rate x recovery lanes.
func resilienceTables(cells []CapacityCell) []*Table {
	var tables []*Table
	for _, e := range distinct(cells, func(c CapacityCell) string { return c.Engine }) {
		tables = append(tables, view(cells, func(c CapacityCell) bool { return c.Engine == e }, cellFamily, resilienceLane).table(
			fmt.Sprintf("Resilience (%s): completion fraction per fault rate x recovery policy", e),
			"Family", resilienceText,
			"completion fraction = tasks finished / tasks total; a fraction below 1.0 without a wedge means the run drained around the losses",
			"nanos is the control arm: no link, no fault layer, completion 1.0 by construction at every rate"))
	}
	return tables
}
