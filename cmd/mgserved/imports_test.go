package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestServingPathImports fences measurement and reproduction code out of
// what the library, the serve package and this daemon link.
func TestServingPathImports(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go list")
	}
	cmd := exec.Command("go", "list", "-deps", "pbmg", "pbmg/serve", "pbmg/cmd/mgserved")
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, out)
	}
	for _, pkg := range strings.Fields(string(out)) {
		for _, f := range []string{"experiments", "cluster", "pbx", "mixload", "analysis"} {
			if p := "pbmg/internal/" + f; pkg == p || strings.HasPrefix(pkg, p+"/") {
				t.Errorf("the serving path depends on %s", pkg)
			}
		}
	}
}
