package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotAlloc guards the allocation discipline of DESIGN.md §7: functions whose
// doc comment carries a //hot:path marker run every epoch (the engine's step
// chain) or every decision (the CoScale search chain) and must not allocate
// in steady state. A make() call inside such a function is reported unless
// the line (or the line above) carries a //hot:alloc-ok <reason> directive —
// the escape hatch for capacity-miss grow paths, which by construction run
// only until the scratch buffers are warm.
//
// The marker is matched in the function's doc comment as a standalone
// //hot:path line, exactly the convention the hand-marked hot paths already
// follow. HotAlloc itself checks only explicitly marked functions; the
// interprocedural hotprop rule extends the same make() check to every
// function reachable from a hot root through the call graph, so unmarked
// helpers (perf.Resize and perf.Grow) justify their capacity-miss
// allocations with //hot:alloc-ok at the make site.
var HotAlloc = &Analyzer{
	Name:  "hotalloc",
	Doc:   "forbid make() in //hot:path functions without a //hot:alloc-ok justification",
	Match: internalPackages,
	Run:   runHotAlloc,
}

func runHotAlloc(pass *Pass) {
	for _, f := range pass.Files {
		allowed, malformed := allocOKLines(pass.Fset, f)
		for _, d := range malformed {
			pass.Reportf(d, `malformed directive: want "//hot:alloc-ok <reason>"`)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !isHotPath(fn) {
				continue
			}
			scanMakes(pass.Info, fn.Body, func(call *ast.CallExpr) {
				if allowed[pass.Fset.Position(call.Pos()).Line] {
					return
				}
				pass.Reportf(call.Pos(),
					"make() in //hot:path function %s; reuse a scratch buffer, or justify the cold path with //hot:alloc-ok <reason>",
					fn.Name.Name)
			})
		}
	}
}

// scanMakes calls fn for every call of the make builtin under root.
func scanMakes(info *types.Info, root ast.Node, fn func(*ast.CallExpr)) {
	ast.Inspect(root, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok || id.Name != "make" {
			return true
		}
		if _, ok := info.Uses[id].(*types.Builtin); !ok {
			return true
		}
		fn(call)
		return true
	})
}

// isHotPath reports whether the function's doc comment contains a standalone
// //hot:path marker line.
func isHotPath(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if strings.TrimSpace(c.Text) == "//hot:path" {
			return true
		}
	}
	return false
}

// allocOKLines gathers //hot:alloc-ok directives: each one licenses
// allocations on its own line and on the following line. Directives missing
// a reason are returned for reporting.
func allocOKLines(fset *token.FileSet, f *ast.File) (map[int]bool, []token.Pos) {
	allowed := map[int]bool{}
	var malformed []token.Pos
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, "//hot:alloc-ok")
			if !ok {
				continue
			}
			if strings.TrimSpace(rest) == "" {
				malformed = append(malformed, c.Pos())
				continue
			}
			line := fset.Position(c.Pos()).Line
			allowed[line] = true
			allowed[line+1] = true
		}
	}
	return allowed, malformed
}
