package schemanet

import (
	"testing"

	"schemanet/internal/core"
)

// WithExhaustiveRank returns a copy of o whose sessions rank every
// suggestion through the core's exhaustive reference pass
// (core.Config.ExhaustiveRank) instead of the lazy top-k ranker — the
// reference side of the differential tests and benchmarks.
func WithExhaustiveRank(o Options) *Options {
	o.exhaustiveRank = true
	return &o
}

// SetTopkMatrixCap lowers the core ranker's co-count-matrix cap
// (core.TopkMatrixCap) until t ends, so small fixtures reach the
// exhaustive route components above the cap take. Not for parallel
// tests: the cap is package state.
func SetTopkMatrixCap(t testing.TB, n int) {
	old := core.TopkMatrixCap
	core.TopkMatrixCap = n
	t.Cleanup(func() { core.TopkMatrixCap = old })
}

// WithMonolithic returns a copy of o whose sessions keep one global
// sample space instead of one per constraint-connected component — the
// reference side of the decomposition differentials.
func WithMonolithic(o Options) *Options {
	o.monolithic = true
	return &o
}

// WithInterpretedConstraints returns a copy of o whose sessions run the
// interpreted reference constraint engine instead of the compiled
// conflict index (which also disables decomposition).
func WithInterpretedConstraints(o Options) *Options {
	o.interpreted = true
	return &o
}
