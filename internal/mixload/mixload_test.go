package mixload

import (
	"testing"
	"time"
)

// TestPercentileNearestRank pins the nearest-rank (ceiling) definition:
// the reported quantile is the smallest sample covering at least the q
// fraction of the distribution — an actually observed latency, never an
// index truncated down toward the median.
func TestPercentileNearestRank(t *testing.T) {
	ten := make([]time.Duration, 10)
	for i := range ten {
		ten[i] = time.Duration((i + 1) * 10) // 10, 20, …, 100
	}
	for _, tc := range []struct {
		name   string
		sorted []time.Duration
		q      float64
		want   time.Duration
	}{
		{"empty", nil, 0.99, 0},
		{"single", []time.Duration{7}, 0.5, 7},
		{"single p99", []time.Duration{7}, 0.99, 7},
		{"min", ten, 0, 10},
		{"p10 is the first sample", ten, 0.10, 10},
		{"p25 rounds up", ten, 0.25, 30},
		// The regression: nearest-rank p50 of an even-sized sample is the
		// LOWER middle (ceil(5)−1 = index 4), not index 5.
		{"p50 even n", ten, 0.50, 50},
		{"just past p50", ten, 0.51, 60},
		{"p90", ten, 0.90, 90},
		{"p99 small sample is the max", ten, 0.99, 100},
		{"p99 of three", []time.Duration{1, 2, 3}, 0.99, 3},
		{"max", ten, 1.0, 100},
		{"clamped above", ten, 1.5, 100},
		{"clamped below", ten, -0.5, 10},
	} {
		if got := Percentile(tc.sorted, tc.q); got != tc.want {
			t.Errorf("%s: Percentile(q=%g) = %v, want %v", tc.name, tc.q, got, tc.want)
		}
	}
}
