package coscale

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	fencedBlock = regexp.MustCompile("(?s)```.*?```")
	codeSpan    = regexp.MustCompile("`([^`\n]+)`")
	goFileName  = regexp.MustCompile(`[\w.-]+\.go\b`)
	makeCommand = regexp.MustCompile(`^make (\S+)`)
	makeTarget  = regexp.MustCompile(`(?m)^([\w.-]+):`)
	braceGroup  = regexp.MustCompile(`\{([^{}]*)\}`)
	selector    = regexp.MustCompile(`^([A-Za-z_]\w*)\.([A-Za-z_]\w*)(?:\(.*\))?$`)
	heading     = regexp.MustCompile(`^(#+)\s`)
)

// TestDocReferencesExist: every code span in the top-level docs that names
// a repository path (internal/…, cmd/…, examples/…), a Go file (by base
// name) or a make target must name something that exists, so the docs
// cannot keep describing code that was deleted or renamed. So must an
// `A.B` span outside a "History" section: when A is a type declared in
// the repository, B must be one of its methods or fields (promoted ones
// included), and when A is a repository package and B is exported, B must
// be a top-level declaration of that package. Fenced blocks are shell
// sessions and are not checked.
func TestDocReferencesExist(t *testing.T) {
	goFiles := map[string]bool{}
	var sources []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".bench")) {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			goFiles[d.Name()] = true
			sources = append(sources, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	decls, err := declaredNames(sources)
	if err != nil {
		t.Fatal(err)
	}
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makeTarget.FindAllStringSubmatch(string(mk), -1) {
		targets[m[1]] = true
	}

	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		// Blank fenced blocks but keep their newlines, so line numbers hold.
		text := fencedBlock.ReplaceAllStringFunc(string(b), func(block string) string {
			return strings.Repeat("\n", strings.Count(block, "\n"))
		})
		historyLevel := 0 // heading level of the History section being skipped, 0 outside one
		for ln, line := range strings.Split(text, "\n") {
			at := fmt.Sprintf("%s:%d", doc, ln+1)
			if h := heading.FindStringSubmatch(line); h != nil {
				if level := len(h[1]); historyLevel == 0 || level <= historyLevel {
					historyLevel = 0
					if strings.Contains(line, "History") {
						historyLevel = level
					}
				}
			}
			for _, m := range codeSpan.FindAllStringSubmatch(line, -1) {
				span := m[1]
				if fields := strings.Fields(span); len(fields) > 0 && isRepoPath(fields[0]) {
					for _, p := range expandBraces(strings.TrimRight(fields[0], ".,;:)")) {
						if _, err := os.Stat(p); err != nil {
							t.Errorf("%s: `%s` names missing path %s", at, span, p)
						}
					}
				}
				for _, name := range goFileName.FindAllString(span, -1) {
					if !goFiles[filepath.Base(name)] {
						t.Errorf("%s: `%s` names missing Go file %s", at, span, name)
					}
				}
				if mc := makeCommand.FindStringSubmatch(span); mc != nil && !targets[mc[1]] {
					t.Errorf("%s: `%s` names missing make target %s", at, span, mc[1])
				}
				if sel := selector.FindStringSubmatch(span); sel != nil && historyLevel == 0 && !decls.resolves(sel[1], sel[2]) {
					t.Errorf("%s: `%s` names %s, which the repository does not declare", at, span, sel[2])
				}
			}
		}
	}
}

// repoDecls indexes the repository's Go declarations for the A.B check.
type repoDecls struct {
	members  map[string]map[string]bool // type name → its fields and methods
	embeds   map[string][]string        // type name → embedded type names
	topLevel map[string]map[string]bool // package name → top-level names
}

// declaredNames parses every file in paths and indexes its declarations.
// Types of the same name in different packages share one member set, and a
// _test package counts as the package it tests.
func declaredNames(paths []string) (*repoDecls, error) {
	d := &repoDecls{
		members:  map[string]map[string]bool{},
		embeds:   map[string][]string{},
		topLevel: map[string]map[string]bool{},
	}
	add := func(m map[string]map[string]bool, key, name string) {
		if m[key] == nil {
			m[key] = map[string]bool{}
		}
		m[key][name] = true
	}
	fset := token.NewFileSet()
	for _, path := range paths {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		pkg := strings.TrimSuffix(f.Name.Name, "_test")
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					add(d.topLevel, pkg, decl.Name.Name)
				} else if recv := baseTypeName(decl.Recv.List[0].Type); recv != "" {
					add(d.members, recv, decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, name := range spec.Names {
							add(d.topLevel, pkg, name.Name)
						}
					case *ast.TypeSpec:
						name := spec.Name.Name
						add(d.topLevel, pkg, name)
						if d.members[name] == nil {
							d.members[name] = map[string]bool{}
						}
						var fields *ast.FieldList
						switch typ := spec.Type.(type) {
						case *ast.StructType:
							fields = typ.Fields
						case *ast.InterfaceType:
							fields = typ.Methods
						}
						if fields == nil {
							continue
						}
						for _, field := range fields.List {
							if len(field.Names) == 0 {
								if emb := baseTypeName(field.Type); emb != "" {
									add(d.members, name, emb)
									d.embeds[name] = append(d.embeds[name], emb)
								}
							}
							for _, n := range field.Names {
								add(d.members, name, n.Name)
							}
						}
					}
				}
			}
		}
	}
	return d, nil
}

// baseTypeName strips pointers, type arguments and a package qualifier from
// a receiver or embedded type expression.
func baseTypeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return baseTypeName(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.IndexExpr:
		return baseTypeName(e.X)
	case *ast.IndexListExpr:
		return baseTypeName(e.X)
	}
	return ""
}

// resolves reports whether the span a.b names something the repository
// declares; spans whose a is neither a repository type nor a repository
// package, or whose b is an unexported package member, are not checked.
func (d *repoDecls) resolves(a, b string) bool {
	_, isType := d.members[a]
	pkg, isPkg := d.topLevel[a]
	isPkg = isPkg && token.IsExported(b)
	if !isType && !isPkg {
		return true
	}
	return (isType && d.hasMember(a, b, map[string]bool{})) || (isPkg && pkg[b])
}

// hasMember reports whether type typ has field or method name, directly or
// promoted through an embedded type.
func (d *repoDecls) hasMember(typ, name string, seen map[string]bool) bool {
	if d.members[typ][name] {
		return true
	}
	seen[typ] = true
	for _, emb := range d.embeds[typ] {
		if !seen[emb] && d.hasMember(emb, name, seen) {
			return true
		}
	}
	return false
}

func isRepoPath(s string) bool {
	for _, root := range []string{"internal/", "cmd/", "examples/"} {
		if strings.HasPrefix(s, root) {
			return true
		}
	}
	return false
}

// expandBraces expands shell-style alternatives: a/{b,c}/d → a/b/d, a/c/d.
func expandBraces(s string) []string {
	loc := braceGroup.FindStringSubmatchIndex(s)
	if loc == nil {
		return []string{s}
	}
	var out []string
	for _, alt := range strings.Split(s[loc[2]:loc[3]], ",") {
		out = append(out, expandBraces(s[:loc[0]]+alt+s[loc[1]:])...)
	}
	return out
}
