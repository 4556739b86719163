package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"
)

// TestDocCommandsExist holds every command the documents show to the tree:
// in their fenced blocks and inline code spans (a span may wrap across
// lines), a `go run ./cmd/X` or `mgX` command must name a directory under
// cmd/ and only flags that command declares; an mgbench -exp value must be
// an experiment mgbench runs; every package a go build, run, test or vet
// command names must exist; and every alternative of a go test line's -run,
// -bench and -fuzz must match a function of its packages. The flags and
// experiments are read from the commands' source, so nothing is built. A
// seeded document naming a removed flag, experiment and benchmark must be
// reported with its file, line and the missing name.
func TestDocCommandsExist(t *testing.T) {
	root := filepath.Join("..", "..")
	tree := readTree(t, root)
	for _, doc := range []string{"README.md", "REPRODUCTION.md", filepath.Join(".claude", "skills", "verify", "SKILL.md")} {
		src, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		if missing := tree.missing(t, doc, string(src)); len(missing) > 0 {
			t.Errorf("%s names what does not exist:\n  %s", doc, strings.Join(missing, "\n  "))
		}
	}

	seeded := "# seeded\n\nServe with\n`mgserved -addr :8080\n  -families poisson`.\n\n" +
		"```sh\ngo run ./cmd/mgbench -exp kernels -q\n" +
		"go test -run '^$' -bench BenchmarkSolveConcurrent .\n```\n"
	got := tree.missing(t, "README.md", seeded)
	want := []string{
		`README.md:4: mgserved: flag -families is not defined`,
		`README.md:8: mgbench: no experiment "kernels"`,
		`README.md:9: go test: -bench "BenchmarkSolveConcurrent" matches nothing in .`,
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("seeded document reported as\n  %s\nwant\n  %s", strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}

// tree is what the documents' commands may name: each command under cmd/
// with its flags, and mgbench's experiments.
type tree struct {
	root        string
	flags       map[string]map[string]bool // command -> flag names
	experiments map[string]bool
}

// readTree parses the commands' source: the name of every flag.X("name", …)
// or flag.XVar(&v, "name", …) call, and the string labels of mgbench's
// switch over its experiment.
func readTree(t *testing.T, root string) *tree {
	t.Helper()
	tr := &tree{root: root, flags: make(map[string]map[string]bool), experiments: make(map[string]bool)}
	dirs, err := os.ReadDir(filepath.Join(root, "cmd"))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		flags := map[string]bool{"h": true, "help": true}
		tr.flags[d.Name()] = flags
		pkgs, err := parser.ParseDir(token.NewFileSet(), filepath.Join(root, "cmd", d.Name()), func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			ast.Inspect(pkg, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					sel, ok := n.Fun.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					if x, ok := sel.X.(*ast.Ident); !ok || x.Name != "flag" {
						return true
					}
					arg := 0
					if strings.HasSuffix(sel.Sel.Name, "Var") {
						arg = 1
					}
					if name, ok := stringLit(n.Args, arg); ok {
						flags[name] = true
					}
				case *ast.SwitchStmt:
					if tag, ok := n.Tag.(*ast.Ident); d.Name() == "mgbench" && ok && tag.Name == "exp" {
						for _, c := range n.Body.List {
							labels := c.(*ast.CaseClause).List
							for i := range labels {
								if label, ok := stringLit(labels, i); ok {
									tr.experiments[label] = true
								}
							}
						}
					}
				}
				return true
			})
		}
	}
	if len(tr.experiments) == 0 {
		t.Fatal("found no experiment in cmd/mgbench: its switch over exp moved")
	}
	return tr
}

// stringLit returns the value of the i-th expression if it is a string
// literal.
func stringLit(exprs []ast.Expr, i int) (string, bool) {
	if i >= len(exprs) {
		return "", false
	}
	lit, ok := exprs[i].(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	return s, err == nil
}

// snippet is a command line of a fenced block, continuation lines joined,
// or an inline code span, with the document line it starts on.
type snippet struct {
	line int
	text string
}

var codeSpan = regexp.MustCompile("`([^`]+)`")

// snippets cuts a Markdown document into the command lines of its fenced
// blocks (go blocks and # comments left out) and the code spans of its
// paragraphs.
func snippets(doc string) []snippet {
	var out []snippet
	lines := strings.Split(doc, "\n")
	var para []string // the paragraph being gathered
	paraStart := 0
	flush := func() {
		text := strings.Join(para, "\n")
		for _, m := range codeSpan.FindAllStringSubmatchIndex(text, -1) {
			span := text[m[2]:m[3]]
			out = append(out, snippet{paraStart + strings.Count(text[:m[0]], "\n"), strings.Join(strings.Fields(span), " ")})
		}
		para = nil
	}
	for i := 0; i < len(lines); i++ {
		line := strings.TrimSpace(lines[i])
		if info, fence := strings.CutPrefix(line, "```"); fence {
			flush()
			for i++; i < len(lines) && !strings.HasPrefix(strings.TrimSpace(lines[i]), "```"); i++ {
				cmd, start := strings.TrimSpace(lines[i]), i
				for strings.HasSuffix(cmd, `\`) && i+1 < len(lines) {
					i++
					cmd = strings.TrimSuffix(cmd, `\`) + " " + strings.TrimSpace(lines[i])
				}
				if info != "go" && cmd != "" && !strings.HasPrefix(cmd, "#") {
					out = append(out, snippet{start + 1, cmd})
				}
			}
			continue
		}
		if line == "" {
			flush()
			continue
		}
		if para == nil {
			paraStart = i + 1
		}
		para = append(para, lines[i])
	}
	flush()
	return out
}

var (
	shellArg   = regexp.MustCompile(`'[^']*'|"[^"]*"|\S+`)
	envAssign  = regexp.MustCompile(`^\w+=`)
	mgBinary   = regexp.MustCompile(`^(mg[a-z]+)(\.\S*)?$`)
	cmdPackage = regexp.MustCompile(`(?:^|/)cmd/([^/.]+)/?$`)
)

// commands splits a snippet into its shell commands, each a list of
// unquoted arguments: at ;, &, && and | and the end of a token that ends in
// ;, dropping a trailing # comment, parentheses and option brackets.
func commands(text string) [][]string {
	var cmds [][]string
	var cur []string
	end := func() {
		if len(cur) > 0 {
			cmds = append(cmds, cur)
		}
		cur = nil
	}
	for _, tok := range shellArg.FindAllString(text, -1) {
		if strings.HasPrefix(tok, "#") {
			break
		}
		switch tok {
		case ";", "&", "&&", "|", "||":
			end()
			continue
		}
		semi := strings.HasSuffix(tok, ";")
		tok = strings.Trim(strings.TrimSuffix(tok, ";"), "()[]")
		if len(tok) > 1 && (tok[0] == '\'' || tok[0] == '"') && tok[len(tok)-1] == tok[0] {
			tok = tok[1 : len(tok)-1]
		}
		if tok != "" {
			cur = append(cur, tok)
		}
		if semi {
			end()
		}
	}
	end()
	return cmds
}

// missing reports, as "doc:line: …", every name a command of the document
// uses that the tree does not have.
func (tr *tree) missing(t *testing.T, doc, src string) []string {
	t.Helper()
	var missing []string
	for _, sn := range snippets(src) {
		dir := tr.root // "" once a cd leaves the module
		for _, args := range commands(sn.text) {
			for len(args) > 0 && (envAssign.MatchString(args[0]) || args[0] == "do" || args[0] == "then") {
				args = args[1:]
			}
			if len(args) == 0 {
				continue
			}
			report := func(format string, a ...any) {
				missing = append(missing, fmt.Sprintf("%s:%d: ", doc, sn.line)+fmt.Sprintf(format, a...))
			}
			if args[0] == "cd" && len(args) > 1 {
				if dir != "" && !filepath.IsAbs(args[1]) && !strings.Contains(args[1], "$") {
					dir = filepath.Join(dir, args[1])
				} else {
					dir = ""
				}
				continue
			}
			var cmd string
			var flags []string
			if m := mgBinary.FindStringSubmatch(filepath.Base(args[0])); m != nil {
				cmd, flags = m[1], args[1:]
			} else if len(args) > 1 && args[0] == "go" {
				pkgs, rest := goPackages(args[1:])
				for _, pkg := range pkgs {
					base := strings.TrimSuffix(strings.TrimSuffix(pkg, "..."), "/")
					if fi, err := os.Stat(filepath.Join(dir, base)); dir != "" && (err != nil || !fi.IsDir()) {
						report("go %s: no package %s", args[1], pkg)
					}
					if m := cmdPackage.FindStringSubmatch(base); m != nil && args[1] == "run" {
						cmd, flags = m[1], rest
					}
				}
				if args[1] == "test" && dir != "" {
					for _, m := range missingSelections(t, dir, args[2:]) {
						report("go test: %s", m)
					}
				}
			}
			if cmd == "" {
				continue
			}
			known, ok := tr.flags[cmd]
			if !ok {
				report("no command cmd/%s", cmd)
				continue
			}
			for j, arg := range flags {
				name, value, hasValue := strings.Cut(strings.TrimLeft(arg, "-"), "=")
				if !strings.HasPrefix(arg, "-") || name == "" || strings.ContainsAny(name[:1], "0123456789.") {
					continue
				}
				if !known[name] {
					report("%s: flag -%s is not defined", cmd, name)
				}
				if cmd == "mgbench" && name == "exp" {
					if !hasValue && j+1 < len(flags) {
						value = flags[j+1]
					}
					for _, exp := range strings.Split(value, "|") {
						if exp != "" && exp != "…" && !tr.experiments[exp] {
							report("mgbench: no experiment %q", exp)
						}
					}
				}
			}
		}
	}
	return missing
}

// goPackages returns the package paths (".", "./x", "../x", each perhaps
// ending in /...) among the arguments of a go subcommand, and for go run,
// whose first package is the program, the arguments after it, which are
// the program's.
func goPackages(args []string) (pkgs, rest []string) {
	for i, arg := range args[1:] {
		if arg == "." || strings.HasPrefix(arg, "./") || strings.HasPrefix(arg, "../") {
			if args[0] == "run" {
				return []string{arg}, args[i+2:]
			}
			pkgs = append(pkgs, arg)
		}
	}
	return pkgs, nil
}

// TestChangesEntriesAreShort holds the changelog's entries, from entry
// wrappedFrom on, to 80 columns a line and 60 lines an entry. An entry is a
// "- PR n" line and the indented lines that follow it. Earlier entries stay
// as written: they carry the disclosures of every check they changed.
func TestChangesEntriesAreShort(t *testing.T) {
	const wrappedFrom, maxColumns, maxLines = 55, 80, 60
	src, err := os.ReadFile(filepath.Join("..", "..", "CHANGES.md"))
	if err != nil {
		t.Fatal(err)
	}
	entry := regexp.MustCompile(`^- PR (\d+)`)
	number, start := 0, 0 // the entry being read, and its first line
	for i, line := range append(strings.Split(string(src), "\n"), "") {
		if !strings.HasPrefix(line, " ") {
			if number >= wrappedFrom && i-start > maxLines {
				t.Errorf("CHANGES.md:%d: entry %d is %d lines long, want at most %d", start+1, number, i-start, maxLines)
			}
			number = 0
			if m := entry.FindStringSubmatch(line); m != nil {
				number, _ = strconv.Atoi(m[1])
				start = i
			}
		}
		if number >= wrappedFrom && utf8.RuneCountInString(line) > maxColumns {
			t.Errorf("CHANGES.md:%d: entry %d has a line of %d columns, want at most %d", i+1, number, utf8.RuneCountInString(line), maxColumns)
		}
	}
}
