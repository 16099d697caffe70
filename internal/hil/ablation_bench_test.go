package hil

// Ablation benchmarks for the model's design choices: DM design, TS
// policy, TRS/DCT instance count and GW admission. Each reports the
// achieved speedup as a custom metric, so `go test -bench Ablation`
// doubles as the design-space exploration harness of Section V-A beyond
// the three shipping DM designs.

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/picos"
)

func benchSpeedup(b *testing.B, app apps.App, block int, mutate func(*Config)) {
	b.Helper()
	res, err := apps.Generate(app, apps.DefaultProblem, block)
	if err != nil {
		b.Fatal(err)
	}
	var speedup float64
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig()
		mutate(&cfg)
		r, err := Run(res.Trace, cfg)
		if err != nil {
			b.Fatal(err)
		}
		speedup = r.Speedup
	}
	b.ReportMetric(speedup, "speedup")
}

// BenchmarkAblationDMDesign sweeps the three DM designs on the
// conflict-heavy Heat workload (Figure 8 / Table II mechanism).
func BenchmarkAblationDMDesign(b *testing.B) {
	for _, design := range picos.Designs {
		b.Run(design.String(), func(b *testing.B) {
			benchSpeedup(b, apps.Heat, 64, func(c *Config) { c.Picos.Design = design })
		})
	}
}

// BenchmarkAblationSchedPolicy compares FIFO vs LIFO TS on Lu
// (Figure 9, right).
func BenchmarkAblationSchedPolicy(b *testing.B) {
	for _, pol := range []picos.SchedPolicy{picos.SchedFIFO, picos.SchedLIFO} {
		b.Run(pol.String(), func(b *testing.B) {
			benchSpeedup(b, apps.Lu, 32, func(c *Config) { c.Picos.Policy = pol })
		})
	}
}

// BenchmarkAblationInstances scales the future architecture of
// Figure 3a: 1x1 vs 2x2 vs 4x4 TRS/DCT on the finest-grained H264
// workload, with 24 workers.
func BenchmarkAblationInstances(b *testing.B) {
	res, err := apps.Generate(apps.H264Dec, 10, 2)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{1, 2, 4} {
		b.Run(string(rune('0'+n))+"x", func(b *testing.B) {
			var speedup float64
			for i := 0; i < b.N; i++ {
				cfg := DefaultConfig()
				cfg.Workers = 24
				cfg.Picos.NumTRS = n
				cfg.Picos.NumDCT = n
				r, err := Run(res.Trace, cfg)
				if err != nil {
					b.Fatal(err)
				}
				speedup = r.Speedup
			}
			b.ReportMetric(speedup, "speedup")
		})
	}
}

// BenchmarkAblationAdmission compares the credit-based deadlock-free
// admission against the prototype's slots-only policy on a VM-pressure
// workload (Cholesky at fine grain has 1-3 deps across many blocks).
func BenchmarkAblationAdmission(b *testing.B) {
	for _, adm := range []picos.AdmissionPolicy{picos.AdmitCredits, picos.AdmitSlotsOnly} {
		name := "credits"
		if adm == picos.AdmitSlotsOnly {
			name = "slots-only"
		}
		b.Run(name, func(b *testing.B) {
			benchSpeedup(b, apps.Cholesky, 64, func(c *Config) { c.Picos.Admission = adm })
		})
	}
}
