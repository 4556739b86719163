package main

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestMGBenchSurface builds mgbench and runs the smallest paper experiment
// and a one-worker Figure 9 (-workers sets its row count), then checks that
// the retired load studies, the retired cluster sketch, the retired
// smoother, ladder and full-DP ablations, the retired kernel timer, the
// compiler gates (mglint's now) and the -compare, -json and -write flags are
// refused.
func TestMGBenchSurface(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := filepath.Join(t.TempDir(), "mgbench")
	build := exec.Command("go", "build", "-o", bin, "pbmg/cmd/mgbench")
	build.Env = append(os.Environ(), "GOFLAGS=-mod=mod")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build mgbench: %v\n%s", err, out)
	}
	ctx, cancel := context.WithTimeout(t.Context(), 2*time.Minute)
	defer cancel()

	out, err := exec.CommandContext(ctx, bin, "-exp", "complexity", "-level", "4", "-q").CombinedOutput()
	if err != nil {
		t.Fatalf("mgbench -exp complexity: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "## Complexity table") {
		t.Fatalf("mgbench -exp complexity printed no table:\n%s", out)
	}

	out, err = exec.CommandContext(ctx, bin, "-exp", "fig9", "-level", "4", "-workers", "1", "-q").CombinedOutput()
	if err != nil {
		t.Fatalf("mgbench -exp fig9: %v\n%s", err, out)
	}
	_, body, _ := strings.Cut(string(out), "-------\n")
	body, _, _ = strings.Cut(body, "note:")
	if rows := strings.Fields(body); len(rows) == 0 || rows[0] != "1" || strings.Count(body, "\n") != 1 {
		t.Fatalf("mgbench -exp fig9 -workers 1: want exactly one worker row:\n%s", out)
	}

	for _, tc := range []struct {
		args    []string
		wantErr string
	}{
		{[]string{"-exp", "serve", "-q"}, `unknown experiment "serve"`},
		{[]string{"-exp", "baseline", "-q"}, `unknown experiment "baseline"`},
		{[]string{"-exp", "cluster", "-q"}, `unknown experiment "cluster"`},
		{[]string{"-exp", "ablation-smoother", "-q"}, `unknown experiment "ablation-smoother"`},
		{[]string{"-exp", "ablation-ladder", "-q"}, `unknown experiment "ablation-ladder"`},
		{[]string{"-exp", "ablation-pareto", "-q"}, `unknown experiment "ablation-pareto"`},
		{[]string{"-exp", "kernels", "-q"}, `unknown experiment "kernels"`},
		{[]string{"-exp", "escapes", "-q"}, `unknown experiment "escapes"`},
		{[]string{"-exp", "bce", "-q"}, `unknown experiment "bce"`},
		{[]string{"-exp", "escapes", "-write"}, "flag provided but not defined: -write"},
		{[]string{"-compare", "a", "b"}, "flag provided but not defined: -compare"},
		{[]string{"-exp", "kernels", "-json"}, "flag provided but not defined: -json"},
	} {
		out, err := exec.CommandContext(ctx, bin, tc.args...).CombinedOutput()
		if err == nil {
			t.Fatalf("mgbench %s succeeded, want failure:\n%s", strings.Join(tc.args, " "), out)
		}
		if !strings.Contains(string(out), tc.wantErr) {
			t.Fatalf("mgbench %s: output missing %q:\n%s", strings.Join(tc.args, " "), tc.wantErr, out)
		}
	}
}
