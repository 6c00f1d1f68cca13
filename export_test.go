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
