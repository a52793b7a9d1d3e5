// BenchmarkExperiments drives the experiment registry of internal/bench
// (DESIGN.md §5, EXPERIMENTS.md): one sub-benchmark per experiment and
// case, timing b.N ops and reporting each case's extras as metrics.
// -short divides every size by 10, as ode-bench -quick does; worker
// counts default as in ode-bench (E13 sweeps up to GOMAXPROCS, the
// E17/E18 mixes run 4 workers, so their op counts match
// WORKLOAD_BASELINE.json). Run with:
//
//	go test -run='^$' -bench 'Experiments/E3' -benchmem
//	go test -short -run='^$' -bench=. -benchtime=1x ./...
package ode_test

import (
	"testing"

	"ode/internal/bench"
)

func BenchmarkExperiments(b *testing.B) {
	for _, e := range bench.Experiments() {
		b.Run(e.ID, func(b *testing.B) {
			err := e.Run(bench.Driver{Short: testing.Short(),
				Measure: func(c bench.Case) error {
					b.Run(c.Label(), func(b *testing.B) {
						d, extra, err := c.Measure(b.N)
						if err != nil {
							b.Fatal(err)
						}
						b.ReportMetric(float64(d.Nanoseconds()), "ns/op")
						for unit, v := range extra {
							b.ReportMetric(v, unit)
						}
					})
					return nil
				}})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}
