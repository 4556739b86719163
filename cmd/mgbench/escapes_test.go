package main

import (
	"path/filepath"
	"strings"
	"testing"
)

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
				file:   filepath.Join(t.TempDir(), "TEST.allow"),
				header: "# test allowances\n",
				unit:   "shapes",
				remedy: "fix it",
			}
			if err := g.writeAllow(allowed); err != nil {
				t.Fatal(err)
			}
			err := g.check(tc.got, false)
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
