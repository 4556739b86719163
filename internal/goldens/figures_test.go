package goldens

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"pbmg/internal/experiments"
)

// modelFigures are the model-priced experiments TestModelFiguresPinned holds,
// in the order testdata/figures.txt lists them, each with the tables
// `mgbench -exp NAME -q` prints.
var modelFigures = []struct {
	name   string
	tables func(r *experiments.Runner) ([]*experiments.Table, error)
}{
	{"fig10", (*experiments.Runner).Fig10},
	{"fig11", (*experiments.Runner).Fig11},
	{"fig12", (*experiments.Runner).Fig12},
	{"fig13", (*experiments.Runner).Fig13},
	{"crosstrain", one((*experiments.Runner).CrossTrain)},
}

func one(f func(r *experiments.Runner) (*experiments.Table, error)) func(r *experiments.Runner) ([]*experiments.Table, error) {
	return func(r *experiments.Runner) ([]*experiments.Table, error) {
		t, err := f(r)
		return []*experiments.Table{t}, err
	}
}

const (
	figuresPath  = "testdata/figures.txt"
	figureHeader = "# mgbench -exp "
)

// TestModelFiguresPinned: the model-priced figures — Figs. 10–13 and the
// cross-training matrix, at mgbench's
// default level 8 and seed — print exactly what testdata/figures.txt
// records. They are deterministic (traces priced by the cost models), so a
// change to the tuner or the models that moves a figure shows as a diff of
// that file; such a change reruns `go test ./internal/goldens -run
// TestModelFiguresPinned -update`. Each section of the file is the output
// of `mgbench -exp NAME -q` under a `# mgbench -exp NAME -q` line.
func TestModelFiguresPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("tunes the three models at level 8")
	}
	got := make([]string, len(modelFigures))
	t.Run("figure", func(t *testing.T) {
		for i, f := range modelFigures {
			t.Run(f.name, func(t *testing.T) {
				t.Parallel()
				r := experiments.NewRunner(experiments.Opts{MaxLevel: 8, Workers: 1})
				defer r.Close()
				tables, err := f.tables(r)
				if err != nil {
					t.Fatal(err)
				}
				var sb strings.Builder
				fmt.Fprintf(&sb, "%s%s -q\n", figureHeader, f.name)
				for _, tb := range tables {
					sb.WriteString(tb.String() + "\n")
				}
				got[i] = sb.String()
			})
		}
	})
	if t.Failed() {
		return
	}
	if *update {
		if err := os.WriteFile(figuresPath, []byte(strings.Join(got, "")), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d figures to %s", len(got), figuresPath)
		return
	}
	data, err := os.ReadFile(figuresPath)
	if err != nil {
		t.Fatalf("read figures (run with -update to create them): %v", err)
	}
	want := map[string]string{}
	for _, sec := range strings.Split(string(data), figureHeader)[1:] {
		name, _, _ := strings.Cut(sec, " ")
		want[name] = figureHeader + sec
	}
	if len(want) != len(got) {
		t.Errorf("%s records %d figures, the test prints %d", figuresPath, len(want), len(got))
	}
	for i, f := range modelFigures {
		if want[f.name] != got[i] {
			t.Errorf("%s moved (run -update if the change is intended):\n--- recorded\n%s--- now\n%s", f.name, want[f.name], got[i])
		}
	}
}
