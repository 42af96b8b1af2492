package lint

import (
	"go/ast"
	"go/token"
)

// DetTaint extends the determinism rule across call edges. The per-package
// determinism analyzer covers internal/{sim,trace,policy,core,fault}
// intra-procedurally, but a helper in perf, power, memsys, counters, cache
// or even server can sit on a bit-reproducibility-critical path the moment
// a policy decision or an engine step calls into it — a per-file walk never
// sees that. DetTaint computes the closure of every function reachable from
// the determinism-scoped packages and reports, with the discovered call
// chain:
//
//   - nondeterminism sources (time.Now, global math/rand, map iteration) in
//     closure functions outside the determinism-scoped packages — exactly
//     the checks the determinism analyzer applies inside them, so the two
//     rules partition the closure without double-reporting;
//   - goroutine launches anywhere in the closure: goroutine completion
//     order is scheduler-dependent, so results folded in arrival order
//     diverge run to run. Concurrency on a determinism-critical path needs
//     a fixed reduction order and a reasoned //lint:ignore.
//
// The same conservative call-graph treatment as hotprop applies: interface
// calls taint every implements-matching method, function-value calls taint
// nothing.
var DetTaint = &ProgramAnalyzer{
	Name: "dettaint",
	Doc:  "taint-track nondeterminism sources into code reachable from determinism-critical packages",
	Run:  runDetTaint,
}

func runDetTaint(pass *ProgramPass) {
	var roots []*FuncInfo
	for _, f := range pass.Prog.FuncsInOrder() {
		if determinismScope(f.Pkg.Path) {
			roots = append(roots, f)
		}
	}
	reach := pass.Prog.CallGraph().ReachableFrom(roots)
	for _, f := range reach.Order() {
		if f.Decl.Body == nil {
			continue
		}
		chain := reach.Chain(f)
		if !determinismScope(f.Pkg.Path) {
			scanNondeterminism(f.Pkg.Info, f.Decl.Body, func(pos token.Pos, format string, args ...any) {
				pass.Reportf(pos, format+"; %s is on a determinism-critical path: %s",
					append(args, f.Name(), chain)...)
			})
		}
		ast.Inspect(f.Decl.Body, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			pass.Reportf(g.Pos(),
				"goroutine launched on a determinism-critical path (%s); completion order is scheduler-dependent — use a fixed reduction order", chain)
			return true
		})
	}
}
