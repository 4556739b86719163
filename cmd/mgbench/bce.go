package main

import (
	"fmt"
	"os/exec"
	"regexp"
	"strings"
)

// The bounds-check gate holds the row kernels to their contract (see
// internal/stencil/rows.go): the loops every fused cycle kernel runs carry
// no index checks. It builds the kernel packages with the compiler's
// check_bce debug pass, keeps the diagnostics that land in a row-kernel
// file, and diffs them — counted per (file, kind) over distinct positions,
// so generic instantiations don't double-count — against BCE.allow. The
// baseline holds only the slice checks of the kernels' re-slicing
// prologues, once per row; an IsInBounds in those files is never in it, so
// any index check the compiler could not eliminate fails the gate, as does a
// slice check beyond the prologues', or an allowance no longer reported.

// bcePkgs are the packages holding row kernels; bceFiles the files that
// hold nothing else.
var (
	bcePkgs  = []string{"./internal/stencil", "./internal/transfer"}
	bceFiles = map[string]bool{"internal/stencil/rows.go": true, "internal/transfer/rows.go": true}
)

// bceRx matches one check_bce diagnostic: file, position, check kind.
var bceRx = regexp.MustCompile(`^(?:\./)?([^\s:]+\.go):(\d+:\d+): Found (IsInBounds|IsSliceInBounds)$`)

var bceGate = allowGate{
	name: "bce",
	file: "BCE.allow",
	header: "# BCE.allow — committed baseline of bounds checks the compiler keeps in the\n" +
		"# row-kernel files (internal/stencil/rows.go, internal/transfer/rows.go):\n" +
		"# only the re-slicing prologues' slice checks, once per row, never an index\n" +
		"# check in a loop. Generated by `go run ./cmd/mgbench -exp bce -write`;\n" +
		"# checked by `go run ./cmd/mgbench -exp bce` in CI. Format:\n" +
		"# <distinct positions>\\t<file>: <check kind>\n",
	unit:   "bounds checks in row-kernel files",
	remedy: "restore the row-kernel form (shared length, induction-variable indices)",
}

func runBCE(write bool, logf func(format string, args ...any)) error {
	const flag = "-gcflags=-d=ssa/check_bce/debug=1"
	if logf != nil {
		logf("bce: go build %s %s", flag, strings.Join(bcePkgs, " "))
	}
	out, err := exec.Command("go", append([]string{"build", flag}, bcePkgs...)...).CombinedOutput()
	if err != nil {
		return fmt.Errorf("bce: go build %s: %w\n%s", flag, err, out)
	}
	seen := make(map[string]bool)
	counts := make(map[string]int)
	matched := 0
	for _, line := range strings.Split(string(out), "\n") {
		m := bceRx.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		matched++
		if pos := m[1] + ":" + m[2] + m[3]; bceFiles[m[1]] && !seen[pos] {
			seen[pos] = true
			counts[m[1]+": "+m[3]]++
		}
	}
	if matched == 0 {
		return fmt.Errorf("bce: no check_bce diagnostics captured — is the build cache disabled or the debug output format changed?")
	}
	return bceGate.check(counts, write)
}
