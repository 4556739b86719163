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

// TestMGBenchSurface builds mgbench and runs the smallest paper experiment,
// then checks that the retired load studies and the -compare flag are
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

	for _, tc := range []struct {
		args    []string
		wantErr string
	}{
		{[]string{"-exp", "serve", "-q"}, `unknown experiment "serve"`},
		{[]string{"-exp", "baseline", "-q"}, `unknown experiment "baseline"`},
		{[]string{"-compare", "a", "b"}, "flag provided but not defined: -compare"},
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
