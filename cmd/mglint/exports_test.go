package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"pbmg/internal/analysis/lintutil"
)

// TestEveryDeclHasAProductionCaller holds every path to being the production
// path or a test oracle in a _test.go file, not both. Every package-level func
// and method, exported or not, and every exported type and var declared in a
// non-test file of pbmg, serve or a package under internal/ must be used by a
// non-test file outside its own declaration: the module's packages and
// commands, examples/ and the bench/ module (its own module, loaded by a
// second go list) all count. A method also counts as used when it matches a
// method of an interface type that a non-test file names, the standard
// library's included, since a call through the interface does not name it.
// There is no allow-list: a name only tests use moves into the _test.go files
// that use it, or goes.
func TestEveryDeclHasAProductionCaller(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and bench/ from source")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	unused, err := unusedDecls(root, filepath.Join(root, "bench"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range unused {
		t.Errorf("%s has no non-test caller: move it into the _test.go files that use it, or delete it", name)
	}
}

// unusedDecls type-checks the packages of each module dir with their tests
// and returns, sorted, the name of every declaration that the test above
// holds to a caller and that no non-test file uses. A name reads "pbmg.F",
// "serve.T.m" or "internal/grid.G.M".
func unusedDecls(dirs ...string) ([]string, error) {
	declared := make(map[string]string) // declaration position -> name
	used := make(map[string]bool)       // declaration positions
	// The methods of every interface type a non-test file names, the
	// standard library's included: a method matching one may be called
	// through it, as errors.Is calls an Is method.
	implemented := make(map[string][]*types.Signature)
	seenIface := make(map[*types.Interface]bool)
	methods := make(map[string]*types.Func) // held methods, by declaration position
	for _, dir := range dirs {
		err := load(dir, []string{"./..."}, func(_ *listedPackage, p *lintutil.Package) {
			for e, tv := range p.Info.Types {
				it, ok := tv.Type.Underlying().(*types.Interface)
				if !ok || !tv.IsType() || seenIface[it] || lintutil.IsTestFile(p.Fset, e.Pos()) {
					continue
				}
				seenIface[it] = true
				for m := range it.Methods() {
					implemented[m.Name()] = append(implemented[m.Name()], m.Signature())
				}
			}
			path := p.Types.Path()
			if path != "pbmg" && !strings.HasPrefix(path, "pbmg/") {
				return
			}
			checked := path == "pbmg" || path == "pbmg/serve" || strings.HasPrefix(path, "pbmg/internal/")
			for _, f := range p.Files {
				if lintutil.IsTestFile(p.Fset, f.Pos()) {
					continue
				}
				for _, d := range f.Decls {
					if checked {
						for _, id := range heldIdents(d) {
							obj := p.Info.Defs[id]
							key := p.Fset.Position(obj.Pos()).String()
							declared[key] = declName(obj)
							if fn, ok := obj.(*types.Func); ok && fn.Signature().Recv() != nil {
								methods[key] = fn
							}
						}
					}
					markUses(p, d, used)
				}
			}
		})
		if err != nil {
			return nil, err
		}
	}
	for key, fn := range methods {
		for _, sig := range implemented[fn.Name()] {
			if types.Identical(withoutRecv(fn.Signature()), withoutRecv(sig)) {
				used[key] = true
			}
		}
	}
	var unused []string
	for key, name := range declared {
		if !used[key] {
			unused = append(unused, name)
		}
	}
	slices.Sort(unused)
	return unused, nil
}

// heldIdents returns the identifiers of decl that the test holds to a
// caller: a func or method of any name but init, main and _, and an exported
// type or var.
func heldIdents(decl ast.Decl) []*ast.Ident {
	var ids []*ast.Ident
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if n := d.Name.Name; n != "init" && n != "main" && n != "_" {
			ids = append(ids, d.Name)
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() {
					ids = append(ids, s.Name)
				}
			case *ast.ValueSpec:
				if d.Tok == token.VAR {
					for _, n := range s.Names {
						if n.IsExported() {
							ids = append(ids, n)
						}
					}
				}
			}
		}
	}
	return ids
}

// markUses records the declaration position of every object a use in decl
// refers to, except the uses inside that object's own declaration. A
// method's receiver belongs to its type's declaration, so it is skipped.
func markUses(p *lintutil.Package, decl ast.Decl, used map[string]bool) {
	var spans [][2]token.Pos // the declarations in decl: a use inside one is not a caller
	switch d := decl.(type) {
	case *ast.FuncDecl:
		spans = append(spans, [2]token.Pos{d.Pos(), d.End()})
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			spans = append(spans, [2]token.Pos{spec.Pos(), spec.End()})
		}
	}
	ast.Inspect(decl, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FieldList:
			if fd, ok := decl.(*ast.FuncDecl); ok && n == fd.Recv {
				return false
			}
		case *ast.Ident:
			obj := p.Info.Uses[n]
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
			case *types.Var:
				obj = o.Origin()
			}
			if obj == nil || slices.ContainsFunc(spans, func(s [2]token.Pos) bool { return s[0] <= obj.Pos() && obj.Pos() < s[1] }) {
				return true
			}
			used[p.Fset.Position(obj.Pos()).String()] = true
		}
		return true
	})
}

// declName names obj as the test reports it: its package path relative
// to the module ("pbmg" for the root), then its receiver's type, if any.
func declName(obj types.Object) string {
	pkg := strings.TrimPrefix(obj.Pkg().Path(), "pbmg/")
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Signature().Recv(); recv != nil {
			t := recv.Type()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			return pkg + "." + t.(*types.Named).Obj().Name() + "." + obj.Name()
		}
	}
	return pkg + "." + obj.Name()
}

func withoutRecv(sig *types.Signature) *types.Signature {
	return types.NewSignatureType(nil, nil, nil, sig.Params(), sig.Results(), sig.Variadic())
}
