package main

import (
	"os/exec"
	"strings"
	"testing"
)

// goList runs go list with args (in the default vendor mode, so that an
// import of x/tools is named rather than fetched) and returns the packages.
func goList(t *testing.T, args ...string) []string {
	t.Helper()
	out, err := exec.Command("go", append([]string{"list"}, args...)...).CombinedOutput()
	if err != nil {
		t.Fatalf("go list %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return strings.Fields(string(out))
}

// TestServingPathImports fences measurement, reproduction and lint code
// out of what the library, the serve package and this daemon link.
func TestServingPathImports(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go list")
	}
	for _, pkg := range goList(t, "-deps", "pbmg", "pbmg/serve", "pbmg/cmd/mgserved") {
		for _, f := range []string{"experiments", "mixload", "goldens", "analysis"} {
			if p := "pbmg/internal/" + f; pkg == p || strings.HasPrefix(pkg, p+"/") {
				t.Errorf("the serving path depends on %s", pkg)
			}
		}
		if strings.HasPrefix(pkg, "golang.org/x/tools/") {
			t.Errorf("the serving path depends on %s", pkg)
		}
	}
}

// TestEveryPackageIsLinkedOrListed gives every package of the module a
// place: the library, the serve package or a command links it, or it is
// listed below with the reason it stands alone. An unlisted package that
// nothing links fails, and so does a listed one that is linked or gone.
func TestEveryPackageIsLinkedOrListed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go list")
	}
	unlinked := map[string]string{
		"pbmg/examples/quickstart":     "a runnable example of the public API",
		"pbmg/examples/electrostatics": "a runnable example of the public API",
		"pbmg/internal/goldens":        "test pins only",
		"pbmg/internal/mixload":        "only bench/ imports it",
	}
	linked := map[string]bool{}
	for _, pkg := range goList(t, "-deps", "pbmg", "pbmg/serve", "pbmg/cmd/...") {
		linked[pkg] = true
	}
	for _, pkg := range goList(t, "pbmg/...") {
		_, listed := unlinked[pkg]
		switch {
		case linked[pkg] && listed:
			t.Errorf("%s is linked: drop it from the list", pkg)
		case !linked[pkg] && !listed:
			t.Errorf("nothing links %s: link it, list it with a reason, or delete it", pkg)
		}
		delete(unlinked, pkg)
	}
	for pkg := range unlinked {
		t.Errorf("listed package %s does not exist", pkg)
	}
}
