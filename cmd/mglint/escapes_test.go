package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestGatesRunFromSubdirectory runs both compiler gates from below the
// module root: they must find their packages and allow files at the root,
// not under the working directory, and pass on the committed tree.
func TestGatesRunFromSubdirectory(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the kernel packages")
	}
	t.Chdir(filepath.Join("..", "..", "internal"))
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range gates {
		if err := g.run(root, false); err != nil {
			t.Errorf("%s gate from internal/: %v", g.name, err)
		}
	}
}

// TestAllowGateCheck diffs reported diagnostics against an allow file: a new
// key, a grown count and an allowed key the compiler no longer reports each
// fail the gate; the allowance exactly, or fewer instances of an allowed
// key, pass.
func TestAllowGateCheck(t *testing.T) {
	const a, b, c = "a.go: x escapes to heap", "b.go: y escapes to heap", "c.go: z escapes to heap"
	allowed := map[string]int{a: 2, b: 1}
	for _, tc := range []struct {
		name    string
		got     map[string]int
		wantErr string // "" passes
	}{
		{"exactly the allowance", map[string]int{a: 2, b: 1}, ""},
		{"fewer instances", map[string]int{a: 1, b: 1}, ""},
		{"new key", map[string]int{a: 2, b: 1, c: 1}, "1 new, 0 grown and 0 stale"},
		{"grown count", map[string]int{a: 3, b: 1}, "0 new, 1 grown and 0 stale"},
		{"stale allowance", map[string]int{a: 2}, "0 new, 0 grown and 1 stale"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := allowGate{
				name:   "test",
				file:   "TEST.allow",
				header: "# test allowances\n",
				unit:   "shapes",
				remedy: "fix it",
			}
			root := t.TempDir()
			if err := g.writeAllow(root, allowed); err != nil {
				t.Fatal(err)
			}
			err := g.check(root, tc.got, false)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("check failed: %v", err)
			case tc.wantErr != "" && err == nil:
				t.Fatalf("check passed, want a failure with %q", tc.wantErr)
			case err != nil && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("check error %q, want it to say %q", err, tc.wantErr)
			}
		})
	}
}

// TestGOROOTKeyedPortably: a diagnostic in the Go installation's own source
// is keyed under $GOROOT, so one allow file holds on hosts whose Go lives
// at different paths.
func TestGOROOTKeyedPortably(t *testing.T) {
	const line = "/opt/go1.24/src/runtime/mcleanup.go:102:5: func literal escapes to heap\n"
	got, err := countEscapes(keyGOROOT(line, "/opt/go1.24"))
	if err != nil {
		t.Fatal(err)
	}
	const want = "$GOROOT/src/runtime/mcleanup.go: func literal escapes to heap"
	if got[want] != 1 || len(got) != 1 {
		t.Fatalf("counted %v, want {%q: 1}", got, want)
	}
}
