package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

func TestUnknownExperiment(t *testing.T) {
	if _, err := Run("nope", Options{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestNamesMatchRegistry: the paper-ordered Names list and the registry
// must agree exactly — a Register without a Names entry (or vice versa)
// is a wiring bug.
func TestNamesMatchRegistry(t *testing.T) {
	if len(Names) != len(registry) {
		t.Fatalf("Names has %d entries, registry %d", len(Names), len(registry))
	}
	for _, name := range Names {
		if _, ok := registry[name]; !ok {
			t.Errorf("%s listed in Names but not registered", name)
		}
	}
}

func TestRegisterGuards(t *testing.T) {
	for _, bad := range []string{"", "table1"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Register(%q) did not panic", bad)
				}
			}()
			Register(bad, func(Options) ([]*Table, error) { return nil, nil })
		}()
	}
}

func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiment sweep still simulates; skipped in -short")
	}
	for _, name := range Names {
		tables, err := Run(name, Options{Quick: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(tables) == 0 {
			t.Fatalf("%s: no tables", name)
		}
		for _, tab := range tables {
			if len(tab.Rows) == 0 || len(tab.Header) == 0 {
				t.Fatalf("%s: empty table %q", name, tab.Title)
			}
			var buf bytes.Buffer
			if err := tab.Fprint(&buf); err != nil {
				t.Fatalf("%s: print: %v", name, err)
			}
			if !strings.Contains(buf.String(), tab.Header[0]) {
				t.Fatalf("%s: printed output missing header", name)
			}
			buf.Reset()
			if err := tab.Plot(&buf); err != nil {
				t.Fatalf("%s: plot: %v", name, err)
			}
			for _, hm := range tab.Heatmaps {
				if !strings.Contains(buf.String(), hm.Title) {
					t.Fatalf("%s: plotted output missing heatmap %q", name, hm.Title)
				}
			}
		}
	}
}

// TestResilienceRetryCompletes: with bounded retransmission every lane
// completes all of its tasks at every drop rate of the sweep, and the
// nanos control arm completes everything. At least one picos-full lane
// with faults and no recovery must lose work, so the retry lanes' 1.0
// is the policy's doing, not a sweep too gentle to drop anything.
func TestResilienceRetryCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates; skipped in -short")
	}
	cells, err := ResilienceData(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	lossy := 0
	for _, c := range cells {
		switch {
		case c.Recovery != "" || c.Engine == "nanos":
			if c.CompletionFraction != 1 || c.Wedged {
				t.Errorf("%s %s %q +%q: completed %.3f, wedged %v; want 1.000, not wedged",
					c.Engine, c.Family, c.FaultPlan, c.Recovery, c.CompletionFraction, c.Wedged)
			}
		case c.Engine == "picos-full" && c.FaultPlan != "" && c.CompletionFraction < 1:
			lossy++
		}
	}
	if lossy == 0 {
		t.Error("no picos-full lane with faults and no recovery lost work: the sweep shows nothing for retry to recover")
	}
}

// TestHeteroScalingRoofline: every hetero-scaling lane must respect the
// class-weighted perfect roofline — the oracle runs on the same class
// mix, so an accelerated lane beating it would mean the roofline is not
// a bound (the scheduling-anomaly bug the best-of-candidates oracle
// exists to prevent). Also pins the lane coverage: every mix carries
// all policy x steal combinations and none of the grid wedges.
func TestHeteroScalingRoofline(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates; skipped in -short")
	}
	cells, err := HeteroScalingData(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	lanes := map[string]int{}
	for _, c := range cells {
		if c.Wedged {
			t.Errorf("%s/%s/%s steal=%v wedged at %d", c.Family, c.Classes, c.Sched, c.Steal, c.WedgedAt)
			continue
		}
		if c.SpeedupVsPerfect <= 0 || c.SpeedupVsPerfect > 1+1e-9 {
			t.Errorf("%s/%s/%s steal=%v: speedup-vs-perfect %.6f outside (0,1]",
				c.Family, c.Classes, c.Sched, c.Steal, c.SpeedupVsPerfect)
		}
		lanes[c.Classes]++
	}
	wantLanes := len(heteroPolicies) * 2 * 2 // policies x steal x quick families
	for mix, n := range lanes {
		if n != wantLanes {
			t.Errorf("mix %s has %d lanes, want %d", mix, n, wantLanes)
		}
	}
}

func TestChartFromTable(t *testing.T) {
	tab := &Table{
		Title:  "sweep",
		Header: []string{"Workers", "A", "B"},
		Rows: [][]string{
			{"2", "1.5", "1.2"},
			{"12", "9.0", "3.3"},
		},
	}
	c := tab.Chart()
	if c == nil || len(c.Series) != 2 {
		t.Fatalf("chart = %+v", c)
	}
	if c.Series[0].Label != "A" || len(c.Series[0].Points) != 2 {
		t.Fatalf("series = %+v", c.Series[0])
	}
	// Non-numeric tables are not chartable.
	bad := &Table{Header: []string{"Name", "X"}, Rows: [][]string{{"a", "1"}, {"b", "2"}}}
	if bad.Chart() != nil {
		t.Fatal("non-numeric x column should not chart")
	}
	empty := &Table{Header: []string{"Workers", "A"}, Rows: [][]string{{"1", "2"}}}
	if empty.Chart() != nil {
		t.Fatal("single-row table should not chart")
	}
}

// cell parses a numeric table cell.
func cell(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tab.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) of %q not numeric: %v", row, col, tab.Title, err)
	}
	return v
}

// TestTable2Shape asserts the paper's central Table II claims on the
// full-size experiment: P+8way has (far) fewer conflicts than the
// direct-hash designs, and the direct designs are close to each other.
func TestTable2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table II in -short")
	}
	tables, err := Run("table2", Options{})
	if err != nil {
		t.Fatal(err)
	}
	tab := tables[0]
	for r := range tab.Rows {
		c8 := cell(t, tab, r, 2)
		c16 := cell(t, tab, r, 3)
		cp8 := cell(t, tab, r, 4)
		if cp8 > c8 || cp8 > c16 {
			t.Errorf("row %v: P+8way conflicts %v not minimal (%v, %v)", tab.Rows[r][:2], cp8, c8, c16)
		}
		if c16 > c8 {
			t.Errorf("row %v: 16way conflicts %v exceed 8way %v", tab.Rows[r][:2], c16, c8)
		}
	}
}

// TestTable4Shape asserts the Table IV relationships the paper
// highlights: HW+comm throughput is flat (~740) regardless of deps, and
// Full-system throughput grows only weakly with deps while per-dep
// throughput shrinks proportionally.
func TestTable4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table IV in -short")
	}
	tables, err := Run("table4", Options{})
	if err != nil {
		t.Fatal(err)
	}
	tab := tables[0]
	// Rows: 0 deps; 1-3 HW-only; 4-6 HW+comm; 7-9 Full-system.
	commThr := tab.Rows[5]
	for c := 1; c < len(commThr); c++ {
		v := cell(t, tab, 5, c)
		if v < 500 || v > 1100 {
			t.Errorf("HW+comm thrTask %s = %v, want ~740 (flat across cases)", tab.Header[c], v)
		}
	}
	fullThr1 := cell(t, tab, 8, 1) // Case1, 0 deps
	fullThr3 := cell(t, tab, 8, 3) // Case3, 15 deps
	if fullThr3 < fullThr1 || fullThr3 > 1.5*fullThr1 {
		t.Errorf("Full-system thrTask grows too much with deps: %v -> %v", fullThr1, fullThr3)
	}
	// HW-only per-dep throughput ~16-24 cycles for the pipelined cases.
	for _, c := range []int{2, 3, 5, 7} {
		v := cell(t, tab, 3, c)
		if v < 10 || v > 45 {
			t.Errorf("HW-only thrDep %s = %v, want 16-24ish", tab.Header[c], v)
		}
	}
}
