// Package sim is a sanctioned site: an unbounded window records the
// schedule of the whole graph, so RunSource materializes there and no
// finding fires.
package sim

import "mwcheck/internal/trace"

// RunSource materializes when no bounded window is set.
func RunSource(src trace.Source, window int) (*trace.Trace, error) {
	if window == 0 {
		return trace.Materialize(src)
	}
	return &trace.Trace{}, nil
}
