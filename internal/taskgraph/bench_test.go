package taskgraph

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/trace"
)

// benchTraces are the two software-runtime analysis shapes: cholesky/32
// reuses 2,080 addresses across 45,760 tasks, while h264dec/2 touches
// about one fresh address per task.
func benchTraces(b *testing.B) []*trace.Trace {
	b.Helper()
	var trs []*trace.Trace
	for _, w := range []struct {
		app            apps.App
		problem, block int
	}{{apps.Cholesky, 2048, 32}, {apps.H264Dec, 10, 2}} {
		res, err := apps.Generate(w.app, w.problem, w.block)
		if err != nil {
			b.Fatal(err)
		}
		trs = append(trs, res.Trace)
	}
	return trs
}

// BenchmarkBuild times the whole-trace analysis: the Incremental pass
// plus the CSR Pred and Succ arenas of a fresh Graph.
func BenchmarkBuild(b *testing.B) {
	for _, tr := range benchTraces(b) {
		b.Run(tr.Name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				Build(tr)
			}
			b.ReportMetric(float64(len(tr.Tasks))*float64(b.N)/b.Elapsed().Seconds(), "tasks/s")
		})
	}
}

// BenchmarkIncremental times a warm analysis pass, Reset included, as
// the pooled nanos loop runs it.
func BenchmarkIncremental(b *testing.B) {
	for _, tr := range benchTraces(b) {
		b.Run(tr.Name, func(b *testing.B) {
			b.ReportAllocs()
			inc := NewIncremental()
			for b.Loop() {
				inc.Reset()
				for i := range tr.Tasks {
					inc.Preds(int32(i), tr.Tasks[i].Deps)
				}
			}
			b.ReportMetric(float64(len(tr.Tasks))*float64(b.N)/b.Elapsed().Seconds(), "tasks/s")
		})
	}
}
