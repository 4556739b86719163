package experiments

import (
	"strconv"
	"testing"
)

func TestSmootherAblationSORWins(t *testing.T) {
	r := smallRunner(t)
	tb, err := r.SmootherAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(tb.Rows))
	}
	// The paper's finding: SOR beats weighted Jacobi at equal per-sweep
	// cost. At the highest accuracies the ratio must clearly favor SOR.
	last := tb.Rows[len(tb.Rows)-1]
	ratio, err := strconv.ParseFloat(last[3], 64)
	if err != nil {
		t.Fatalf("bad ratio %q", last[3])
	}
	if ratio < 1.0 {
		t.Errorf("Jacobi/SOR cost ratio %v < 1 at 1e9; the paper found SOR superior", ratio)
	}
}

func TestLadderAblationDenserIsBetter(t *testing.T) {
	r := smallRunner(t)
	tb, err := r.LadderAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tb.Rows))
	}
	parse := func(s string) float64 {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("bad cost %q", s)
		}
		return v
	}
	single := parse(tb.Rows[0][1])
	paper := parse(tb.Rows[3][1])
	// The paper ladder can never be worse than the single-target ladder:
	// its candidate space strictly contains the latter's.
	if paper > single*1.02 {
		t.Errorf("paper ladder cost %v exceeds single-target cost %v", paper, single)
	}
}

func TestParetoAblationFullDPNotWorse(t *testing.T) {
	r := smallRunner(t)
	tb, err := r.ParetoAblation()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		disc, err1 := strconv.ParseFloat(row[1], 64)
		full, err2 := strconv.ParseFloat(row[2], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("bad row %v", row)
		}
		// Full DP picks from a superset of the discrete candidates; its
		// training-measured cost may differ slightly on the test instance,
		// so allow a modest margin.
		if full > disc*1.25 {
			t.Errorf("target %s: full-DP cost %v far exceeds discrete %v", row[0], full, disc)
		}
		if row[3] == "" {
			t.Errorf("target %s: missing plan description", row[0])
		}
	}
}
