// mglint is the repo's invariant checker: it runs the five analyzers
// that mechanically enforce the kernel, pooling, and serving contracts
// (see README "Static analysis"):
//
//	hotalloc     no allocation in kernel hot paths
//	determinism  no nondeterminism sources in kernel/reduction code
//	poolput      every arena checkout released on all paths
//	boundedgo    no unbounded goroutine launches in the serving path
//	dimguard     2D/3D grid accessor mismatches at compile time
//
// Usage:
//
//	go run ./cmd/mglint ./...          # lint the repo; nonzero exit on findings
//	go run ./cmd/mglint -json ./...    # machine-readable diagnostics
//
// mglint lists the packages with `go list -deps -test`, so test files and
// test variants are analyzed as the build sees them, type-checks each one
// from source with go/types, and runs the analyzers through lintutil.Run.
// Findings are reported for the named packages only. Their dependencies,
// the standard library included, run no analyzer: each only adds the
// functions that never return to the set the load shares, which decides
// the paths poolput walks past a call such as log.Fatal.
package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"pbmg/internal/analysis/boundedgo"
	"pbmg/internal/analysis/determinism"
	"pbmg/internal/analysis/dimguard"
	"pbmg/internal/analysis/hotalloc"
	"pbmg/internal/analysis/lintutil"
	"pbmg/internal/analysis/poolput"
)

// Analyzers is the mglint suite, in reporting order.
var Analyzers = []*lintutil.Analyzer{
	hotalloc.Analyzer,
	determinism.Analyzer,
	poolput.Analyzer,
	boundedgo.Analyzer,
	dimguard.Analyzer,
}

func main() {
	var jsonOut bool
	var patterns []string
	for _, a := range os.Args[1:] {
		switch a {
		case "-json", "--json":
			jsonOut = true
		case "-h", "-help", "--help":
			usage()
			return
		default:
			if strings.HasPrefix(a, "-") {
				fmt.Fprintf(os.Stderr, "mglint: unknown flag %s\n", a)
				usage()
				os.Exit(2)
			}
			patterns = append(patterns, a)
		}
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	findings, err := lint(patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mglint: %v\n", err)
		os.Exit(2)
	}
	if jsonOut {
		tree := make(map[string]map[string][]finding)
		for _, f := range findings {
			if tree[f.pkg] == nil {
				tree[f.pkg] = make(map[string][]finding)
			}
			tree[f.pkg][f.analyzer] = append(tree[f.pkg][f.analyzer], f)
		}
		data, _ := json.MarshalIndent(tree, "", "\t") // maps of strings always marshal
		fmt.Printf("%s\n", data)
	} else {
		for _, f := range findings {
			fmt.Fprintf(os.Stderr, "%s: %s\n", f.Posn, f.Message)
		}
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

// listedPackage is the part of `go list -json` output mglint reads.
type listedPackage struct {
	ImportPath string // "p", or "p [q.test]" for a test variant
	Name       string
	Dir        string
	GoFiles    []string
	ImportMap  map[string]string // import path in source -> ImportPath
	DepOnly    bool
	Error      *struct{ Err string }
}

type finding struct {
	pkg, analyzer string
	Posn          string `json:"posn"`
	Message       string `json:"message"`
}

// lint loads, type-checks and analyzes the packages the patterns name and
// their dependencies, and returns each root package finding once.
func lint(patterns []string) ([]finding, error) {
	cmd := exec.Command("go", append([]string{"list", "-e", "-json", "-deps", "-test"}, patterns...)...)
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %w", err)
	}
	cwd, _ := os.Getwd() // on failure positions stay absolute
	fset := token.NewFileSet()
	checked := map[string]*types.Package{"unsafe": types.Unsafe}
	noReturn := make(map[*types.Func]bool)
	seen := make(map[[2]string]bool)
	var findings []finding
	// go list prints every package after its dependencies.
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var lp listedPackage
		if err := dec.Decode(&lp); err != nil {
			return nil, fmt.Errorf("reading go list output: %w", err)
		}
		if lp.ImportPath == "unsafe" || lp.Name == "main" && strings.HasSuffix(lp.ImportPath, ".test") {
			continue // unsafe has no source; *.test mains are generated
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("%s: %s", lp.ImportPath, lp.Error.Err)
		}
		// Imports resolve through ImportMap to packages already checked,
		// keyed by ImportPath so that test variants stay apart.
		imp := importerFunc(func(path string) (*types.Package, error) {
			if p := checked[cmp.Or(lp.ImportMap[path], path)]; p != nil {
				return p, nil
			}
			return nil, fmt.Errorf("go list did not list %s before its importer", path)
		})
		path, _, _ := strings.Cut(lp.ImportPath, " ") // a test variant keeps its package's path
		p, err := lintutil.Check(fset, path, lp.Dir, lp.GoFiles, imp)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", lp.ImportPath, err)
		}
		checked[lp.ImportPath] = p.Types
		var analyzers []*lintutil.Analyzer
		if !lp.DepOnly {
			analyzers = Analyzers
		}
		diags := lintutil.Run(p, noReturn, analyzers...)
		for _, a := range analyzers {
			for _, d := range diags[a] {
				posn := fset.Position(d.Pos)
				if rel, err := filepath.Rel(cwd, posn.Filename); err == nil && !strings.HasPrefix(rel, "..") {
					posn.Filename = rel
				}
				if key := [2]string{posn.String(), d.Message}; !seen[key] {
					seen[key] = true
					findings = append(findings, finding{lp.ImportPath, a.Name, key[0], key[1]})
				}
			}
		}
	}
	return findings, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func usage() {
	fmt.Fprintf(os.Stderr, `mglint: enforce pbmg's kernel, pooling, and serving invariants

usage: mglint [-json] [packages...]   (default ./...)

analyzers:
`)
	for _, a := range Analyzers {
		fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, strings.Split(a.Doc, "\n")[0])
	}
	fmt.Fprintf(os.Stderr, "\nSuppress a finding with //mglint:allow <analyzer> — <justification>.\n")
}
