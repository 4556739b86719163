// mglint is the repo's invariant checker. It runs the two analyzers that
// enforce the pooling and serving contracts no other gate checks (see
// README "Static analysis"):
//
//	poolput      every arena checkout released on all paths
//	boundedgo    no unbounded goroutine launches in the serving path
//
// and the two compiler gates, which diff what the compiler emits for the
// kernel packages against allow files at the module root:
//
//	escapes      heap escapes in internal/{stencil,transfer,grid} (ESCAPES.allow)
//	bce          bounds checks in the row-kernel files (BCE.allow)
//
// Usage:
//
//	go run ./cmd/mglint ./...          # lint the repo; nonzero exit on findings
//	go run ./cmd/mglint -json ./...    # machine-readable diagnostics
//	go run ./cmd/mglint -write ./...   # regenerate ESCAPES.allow and BCE.allow
//
// mglint lists the packages with `go list -deps -test`, so test files and
// test variants are analyzed as the build sees them, type-checks each one
// from source with go/types, and runs the analyzers through lintutil.Run.
// Findings are reported for the named packages only. Their dependencies,
// the standard library included, run no analyzer: each only adds the
// functions that never return to the set the load shares, which decides
// the paths poolput walks past a call such as log.Fatal. A compiler gate
// runs when one of its packages is among the named ones, from whatever
// directory mglint is started in.
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
	"pbmg/internal/analysis/lintutil"
	"pbmg/internal/analysis/poolput"
)

// Analyzers is the mglint suite, in reporting order.
var Analyzers = []*lintutil.Analyzer{
	poolput.Analyzer,
	boundedgo.Analyzer,
}

// gates are the compiler gates mglint runs beside its analyzers.
var gates = []allowGate{escapeGate, bceGate}

func main() {
	var jsonOut, write bool
	var patterns []string
	for _, a := range os.Args[1:] {
		switch a {
		case "-json", "--json":
			jsonOut = true
		case "-write", "--write":
			write = true
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
	findings, dirs, err := lint(patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mglint: %v\n", err)
		os.Exit(2)
	}
	root, _ := moduleRoot() // outside a module no gate's packages are linted
	gateFailed := false
	for _, g := range gates {
		if !g.covers(root, dirs) {
			continue
		}
		if err := g.run(root, write); err != nil {
			fmt.Fprintf(os.Stderr, "mglint: %v\n", err)
			gateFailed = true
		}
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
	if len(findings) > 0 || gateFailed {
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
// their dependencies, and returns each root package finding once and the
// directories of the root packages.
func lint(patterns []string) ([]finding, map[string]bool, error) {
	cwd, _ := os.Getwd() // on failure positions stay absolute
	noReturn := make(map[*types.Func]bool)
	seen := make(map[[2]string]bool)
	dirs := make(map[string]bool)
	var findings []finding
	err := load("", patterns, func(lp *listedPackage, p *lintutil.Package) {
		var analyzers []*lintutil.Analyzer
		if !lp.DepOnly {
			analyzers = Analyzers
			dirs[lp.Dir] = true
		}
		diags := lintutil.Run(p, noReturn, analyzers...)
		for _, a := range analyzers {
			for _, d := range diags[a] {
				posn := p.Fset.Position(d.Pos)
				if rel, err := filepath.Rel(cwd, posn.Filename); err == nil && !strings.HasPrefix(rel, "..") {
					posn.Filename = rel
				}
				if key := [2]string{posn.String(), d.Message}; !seen[key] {
					seen[key] = true
					findings = append(findings, finding{lp.ImportPath, a.Name, key[0], key[1]})
				}
			}
		}
	})
	return findings, dirs, err
}

// load lists the packages the patterns name from dir ("" for the working
// directory) with `go list -deps -test`, type-checks each from source on
// one file set, dependencies first, and hands it to visit.
func load(dir string, patterns []string, visit func(*listedPackage, *lintutil.Package)) error {
	cmd := exec.Command("go", append([]string{"list", "-e", "-json", "-deps", "-test"}, patterns...)...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go list: %w", err)
	}
	fset := token.NewFileSet()
	checked := map[string]*types.Package{"unsafe": types.Unsafe}
	// go list prints every package after its dependencies.
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var lp listedPackage
		if err := dec.Decode(&lp); err != nil {
			return fmt.Errorf("reading go list output: %w", err)
		}
		if lp.ImportPath == "unsafe" || lp.Name == "main" && strings.HasSuffix(lp.ImportPath, ".test") {
			continue // unsafe has no source; *.test mains are generated
		}
		if lp.Error != nil {
			return fmt.Errorf("%s: %s", lp.ImportPath, lp.Error.Err)
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
			return fmt.Errorf("%s: %w", lp.ImportPath, err)
		}
		checked[lp.ImportPath] = p.Types
		visit(&lp, p)
	}
	return nil
}

// moduleRoot returns the directory of the main module's go.mod, which the
// compiler gates build from and keep their allow files in.
func moduleRoot() (string, error) {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		return "", fmt.Errorf("go env GOMOD: %w", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return "", fmt.Errorf("not inside a Go module")
	}
	return filepath.Dir(gomod), nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func usage() {
	fmt.Fprintf(os.Stderr, `mglint: enforce pbmg's kernel, pooling, and serving invariants

usage: mglint [-json] [-write] [packages...]   (default ./...)

  -json   print the analyzers' findings as JSON on stdout
  -write  regenerate the compiler gates' allow files instead of checking them

analyzers:
`)
	for _, a := range Analyzers {
		fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, strings.Split(a.Doc, "\n")[0])
	}
	fmt.Fprintf(os.Stderr, "\ncompiler gates (run when one of their packages is linted):\n")
	for _, g := range gates {
		fmt.Fprintf(os.Stderr, "  %-12s %s against %s\n", g.name, g.unit, g.file)
	}
	fmt.Fprintf(os.Stderr, "\nSuppress a finding with //mglint:allow <analyzer> — <justification>.\n")
}
