package hotalloc_test

import (
	"slices"
	"testing"

	"pbmg/internal/analysis/atest"
	"pbmg/internal/analysis/hotalloc"
)

func TestHotalloc(t *testing.T) {
	// The root a finding names must not depend on map order: ten runs
	// catch an analyzer that picks it at random with probability
	// 1 - 2^-10.
	atest.Run(t, "testdata", hotalloc.Analyzer, slices.Repeat([]string{"stencil"}, 10)...)
}
