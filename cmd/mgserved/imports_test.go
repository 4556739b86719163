package main

import (
	"os/exec"
	"strings"
	"testing"
)

// TestServingPathImports fences measurement, reproduction and lint code
// out of what the library, the serve package and this daemon link.
func TestServingPathImports(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go list")
	}
	// In the default vendor mode, so that a serving import of x/tools is
	// named below rather than fetched.
	cmd := exec.Command("go", "list", "-deps", "pbmg", "pbmg/serve", "pbmg/cmd/mgserved")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, out)
	}
	for _, pkg := range strings.Fields(string(out)) {
		for _, f := range []string{"experiments", "cluster", "pbx", "mixload", "goldens", "analysis"} {
			if p := "pbmg/internal/" + f; pkg == p || strings.HasPrefix(pkg, p+"/") {
				t.Errorf("the serving path depends on %s", pkg)
			}
		}
		if strings.HasPrefix(pkg, "golang.org/x/tools/") {
			t.Errorf("the serving path depends on %s", pkg)
		}
	}
}
