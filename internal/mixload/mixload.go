// Package mixload holds the nearest-rank latency percentile that the repo
// benchmark (bench/) reports its client latencies with.
package mixload

import (
	"math"
	"time"
)

// Percentile returns the q-quantile of sorted latencies by the
// nearest-rank (ceiling) definition: the smallest sample ≥ the q fraction
// of the distribution, so p99 on small samples reports an actually
// observed high-end latency instead of truncating down toward the median
// (0 when empty; q ≤ 0 returns the minimum, q ≥ 1 the maximum).
func Percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
