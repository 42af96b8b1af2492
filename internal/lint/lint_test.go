package lint

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from current analyzer output")

// fixtureGroups maps each golden file to the fixture packages it covers.
// Directories are relative to testdata/src; import paths are derived the
// same way the driver derives them, so path-scoped rules fire exactly as
// they would on real packages. Each group is checked as one program, so the
// interprocedural analyzers see all of its packages at once.
var fixtureGroups = []struct {
	golden string
	dirs   []string
}{
	{"floateq", []string{"floateq/bad", "floateq/clean"}},
	{"unitliteral", []string{"unitliteral/bad", "unitliteral/clean"}},
	{"determinism", []string{"sim/determbad", "sim/determclean", "fault/determbad", "fault/determclean", "dram/determexempt"}},
	{"nopanic", []string{"nopanic/bad", "nopanic/clean", "server/handlerbad", "server/handlerclean"}},
	{"noprint", []string{"noprint/bad", "noprint/clean"}},
	{"hotalloc", []string{"hotalloc/bad", "hotalloc/clean"}},
	{"hotprop", []string{"hotprop/bad", "hotprop/clean"}},
	{"dettaint", []string{"sim/taintbad", "sim/taintclean", "dtutil/clock"}},
	{"ctxprop", []string{"server/ctxbad", "server/ctxclean"}},
	{"ignore", []string{"ignore/bad"}},
}

// fixtureLoader returns a loader whose fixture fallback lets fixture
// packages import each other under the coscale/internal/ convention
// (dettaint's scoped caller imports its out-of-scope helper this way).
func fixtureLoader(root, testdata string) *Loader {
	loader := NewLoader(root, "coscale")
	loader.FixtureDirs = []string{filepath.Join(testdata, "src")}
	return loader
}

// fixtureDiags loads the fixture dirs as one program through a shared
// loader and runs the full suite — per-package and interprocedural — over
// it.
func fixtureDiags(t *testing.T, loader *Loader, testdata string, dirs []string) []Diagnostic {
	t.Helper()
	targets := make([]*Package, 0, len(dirs))
	for _, rel := range dirs {
		dir := filepath.Join(testdata, "src", rel)
		pkg, err := loader.LoadDir(dir, "coscale/internal/"+rel)
		if err != nil {
			t.Fatalf("load %s: %v", rel, err)
		}
		targets = append(targets, pkg)
	}
	return Check(BuildProgram(loader, targets), Analyzers(), ProgramAnalyzers())
}

// checkFixtures renders a group's diagnostics with testdata-relative paths.
func checkFixtures(t *testing.T, loader *Loader, testdata string, dirs []string) string {
	t.Helper()
	var out strings.Builder
	for _, d := range fixtureDiags(t, loader, testdata, dirs) {
		if r, err := filepath.Rel(testdata, d.Pos.Filename); err == nil {
			d.Pos.Filename = filepath.ToSlash(r)
		}
		fmt.Fprintln(&out, d)
	}
	return out.String()
}

func TestAnalyzersGolden(t *testing.T) {
	root, testdata := repoRoot(t), testdataDir(t)
	loader := fixtureLoader(root, testdata)
	for _, g := range fixtureGroups {
		t.Run(g.golden, func(t *testing.T) {
			got := checkFixtures(t, loader, testdata, g.dirs)
			goldenFile := filepath.Join(testdata, "golden", g.golden+".txt")
			if *update {
				if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(goldenFile, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenFile)
			if err != nil {
				t.Fatalf("missing golden file (run go test ./internal/lint -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// TestBadFixturesFindEachRule asserts every analyzer actually fires on its
// bad fixture — a golden file of the wrong shape cannot mask a silent
// analyzer.
func TestBadFixturesFindEachRule(t *testing.T) {
	root, testdata := repoRoot(t), testdataDir(t)
	loader := fixtureLoader(root, testdata)
	cases := map[string]string{
		"floateq":     "floateq/bad",
		"unitliteral": "unitliteral/bad",
		"determinism": "sim/determbad",
		"nopanic":     "nopanic/bad",
		"noprint":     "noprint/bad",
		"hotalloc":    "hotalloc/bad",
		"hotprop":     "hotprop/bad",
		"dettaint":    "sim/taintbad",
		"ctxprop":     "server/ctxbad",
		"lint":        "ignore/bad",
	}
	for rule, rel := range cases {
		dirs := []string{rel}
		if rule == "dettaint" {
			dirs = append(dirs, "dtutil/clock") // taint source lives in the helper package
		}
		found := false
		for _, d := range fixtureDiags(t, loader, testdata, dirs) {
			if d.Rule == rule {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("rule %s reported nothing on %s", rule, rel)
		}
	}
}

// TestHotPropChains pins the interprocedural diagnostics to their call
// chains: the multi-hop static chain and the interface-dispatch hop must
// both be spelled out.
func TestHotPropChains(t *testing.T) {
	root, testdata := repoRoot(t), testdataDir(t)
	loader := fixtureLoader(root, testdata)
	diags := fixtureDiags(t, loader, testdata, []string{"hotprop/bad"})
	wantChains := []string{
		"bad.step → bad.total → bad.fill",
		"bad.reduce → (bad.summer).sum → bad.sliceSummer.sum",
	}
	for _, want := range wantChains {
		found := false
		for _, d := range diags {
			if d.Rule == "hotprop" && strings.Contains(d.Message, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no hotprop diagnostic carries chain %q; got %v", want, diags)
		}
	}
}

// TestCallGraphConservative pins the function-value policy: a call of a
// function value produces an unknown site, not invented edges, so the
// callback's allocation stays unreported.
func TestCallGraphConservative(t *testing.T) {
	root, testdata := repoRoot(t), testdataDir(t)
	loader := fixtureLoader(root, testdata)
	dir := filepath.Join(testdata, "src", "hotprop/clean")
	pkg, err := loader.LoadDir(dir, "coscale/internal/hotprop/clean")
	if err != nil {
		t.Fatal(err)
	}
	prog := BuildProgram(loader, []*Package{pkg})
	graph := prog.CallGraph()
	var apply, callback *FuncInfo
	for _, f := range prog.FuncsInOrder() {
		switch f.Obj.Name() {
		case "apply":
			apply = f
		case "callback":
			callback = f
		}
	}
	if apply == nil || callback == nil {
		t.Fatal("fixture functions not indexed")
	}
	if len(graph.Unknown[apply]) == 0 {
		t.Error("apply's function-value call was not recorded as unknown")
	}
	for _, e := range graph.Out[apply] {
		if e.Callee == callback {
			t.Error("call graph invented an edge through a function value")
		}
	}
	if hotClosure(prog).Contains(callback) {
		t.Error("callback must not be in the hot closure")
	}
}

// TestDriverExitCodes runs the real driver entry point over each fixture:
// every violating package must fail the build, every clean one must pass.
// The dettaint fixtures are absent here — their cross-package import only
// resolves through the test loader's fixture fallback, not the CLI.
func TestDriverExitCodes(t *testing.T) {
	testdata := testdataDir(t)
	bad := []string{"floateq/bad", "unitliteral/bad", "sim/determbad", "fault/determbad", "nopanic/bad", "server/handlerbad", "noprint/bad", "hotalloc/bad", "hotprop/bad", "server/ctxbad", "ignore/bad"}
	for _, rel := range bad {
		var out, errOut bytes.Buffer
		if code := Main([]string{filepath.Join(testdata, "src", rel)}, &out, &errOut); code != ExitFindings {
			t.Errorf("Main(%s) = %d, want %d\nstdout: %s\nstderr: %s",
				rel, code, ExitFindings, out.String(), errOut.String())
		}
	}
	clean := []string{"floateq/clean", "unitliteral/clean", "sim/determclean", "fault/determclean", "dram/determexempt", "nopanic/clean", "server/handlerclean", "noprint/clean", "hotalloc/clean", "hotprop/clean", "server/ctxclean"}
	args := make([]string, len(clean))
	for i, rel := range clean {
		args[i] = filepath.Join(testdata, "src", rel)
	}
	var out, errOut bytes.Buffer
	if code := Main(args, &out, &errOut); code != ExitClean {
		t.Errorf("Main(clean fixtures) = %d, want %d\nstdout: %s\nstderr: %s",
			code, ExitClean, out.String(), errOut.String())
	}
}

// TestRepoIsClean lints the entire repository — per-package and
// interprocedural suites both — the gate that CI runs, kept inside go test
// so plain `go test ./...` enforces it too.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("repo-wide lint skipped in -short mode")
	}
	var out, errOut bytes.Buffer
	code := Main([]string{filepath.Join(repoRoot(t), "...")}, &out, &errOut)
	if code != ExitClean {
		t.Errorf("repository is not lint-clean (exit %d):\n%s%s", code, out.String(), errOut.String())
	}
}

// TestEscapesGate runs the escape-analysis gate against the committed
// baseline (must pass regardless of toolchain: a version mismatch
// downgrades to warnings), then drops one baseline record and checks the
// gate actually fails on the reappeared escape when versions match.
func TestEscapesGate(t *testing.T) {
	if testing.Short() {
		t.Skip("escape gate skipped in -short mode")
	}
	root := repoRoot(t)
	var out, errOut bytes.Buffer
	if code := Main([]string{"-escapes"}, &out, &errOut); code != ExitClean {
		t.Fatalf("escapes gate failed against committed baseline (exit %d):\n%s%s",
			code, out.String(), errOut.String())
	}

	data, err := os.ReadFile(filepath.Join(root, "ESCAPES_baseline.json"))
	if err != nil {
		t.Fatalf("committed baseline missing: %v", err)
	}
	var base EscapeBaseline
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatal(err)
	}
	if base.Go != runtime.Version() {
		t.Skipf("baseline built with %s, running %s; regression path not comparable", base.Go, runtime.Version())
	}
	if len(base.Escapes) == 0 {
		t.Skip("baseline records no hot-closure escapes; nothing to drop")
	}
	trimmed := EscapeBaseline{Go: base.Go, Escapes: base.Escapes[:len(base.Escapes)-1]}
	tdata, err := json.Marshal(trimmed)
	if err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(tmp, tdata, 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errOut.Reset()
	if code := Main([]string{"-escapes", "-baseline", tmp}, &out, &errOut); code != ExitFindings {
		t.Errorf("gate with a trimmed baseline = %d, want %d\nstdout: %s\nstderr: %s",
			code, ExitFindings, out.String(), errOut.String())
	}
}

// TestEscapeLineParsing pins the compiler diagnostic formats the gate
// consumes.
func TestEscapeLineParsing(t *testing.T) {
	cases := []struct {
		line string
		file string
		keep bool
	}{
		{"internal/perf/perf.go:326:14: make([]go.shape.float64, n) escapes to heap", "internal/perf/perf.go", true},
		{"internal/sim/engine.go:100:6: moved to heap: cfg", "internal/sim/engine.go", true},
		{"internal/perf/perf.go:10:6: can inline Grow[go.shape.float64]", "internal/perf/perf.go", false},
		{"internal/perf/perf.go:12:2: n does not escape", "internal/perf/perf.go", false},
		{"# coscale/internal/perf", "", false},
	}
	for _, c := range cases {
		m := escapeLine.FindStringSubmatch(c.line)
		keep := m != nil && isEscapeMessage(m[3])
		if keep != c.keep {
			t.Errorf("line %q: keep = %v, want %v", c.line, keep, c.keep)
		}
		if c.keep && m[1] != c.file {
			t.Errorf("line %q: file = %q, want %q", c.line, m[1], c.file)
		}
	}
}

func TestMainList(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := Main([]string{"-list"}, &out, &errOut); code != ExitClean {
		t.Fatalf("Main(-list) = %d, stderr: %s", code, errOut.String())
	}
	for _, a := range Analyzers() {
		if !strings.Contains(out.String(), a.Name) {
			t.Errorf("-list output missing analyzer %s:\n%s", a.Name, out.String())
		}
	}
	for _, a := range ProgramAnalyzers() {
		if !strings.Contains(out.String(), a.Name) {
			t.Errorf("-list output missing program analyzer %s:\n%s", a.Name, out.String())
		}
	}
}

// TestMainJSON checks the machine-readable output: a decodable array whose
// entries carry file, line, rule and message.
func TestMainJSON(t *testing.T) {
	testdata := testdataDir(t)
	var out, errOut bytes.Buffer
	code := Main([]string{"-json", filepath.Join(testdata, "src", "hotprop/bad")}, &out, &errOut)
	if code != ExitFindings {
		t.Fatalf("Main(-json hotprop/bad) = %d, want %d\nstderr: %s", code, ExitFindings, errOut.String())
	}
	var diags []jsonDiagnostic
	if err := json.Unmarshal(out.Bytes(), &diags); err != nil {
		t.Fatalf("output is not a JSON array: %v\n%s", err, out.String())
	}
	if len(diags) == 0 {
		t.Fatal("JSON output is empty for a violating package")
	}
	for _, d := range diags {
		if d.File == "" || d.Line == 0 || d.Rule == "" || d.Message == "" {
			t.Errorf("incomplete JSON diagnostic: %+v", d)
		}
	}
}

func TestImportPathFor(t *testing.T) {
	root := string(filepath.Separator) + filepath.Join("home", "x", "repo")
	cases := []struct {
		dir, want string
	}{
		{root, "coscale"},
		{filepath.Join(root, "internal", "sim"), "coscale/internal/sim"},
		{filepath.Join(root, "internal", "lint", "testdata", "src", "sim", "determbad"), "coscale/internal/sim/determbad"},
	}
	for _, c := range cases {
		got, err := importPathFor(root, "coscale", c.dir)
		if err != nil {
			t.Fatalf("importPathFor(%s): %v", c.dir, err)
		}
		if got != c.want {
			t.Errorf("importPathFor(%s) = %q, want %q", c.dir, got, c.want)
		}
	}
	if _, err := importPathFor(root, "coscale", filepath.Dir(root)); err == nil {
		t.Error("importPathFor accepted a directory outside the module")
	}
}

// repoRoot locates the module root from the test's working directory.
func repoRoot(t *testing.T) string {
	t.Helper()
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, modPath, err := findModule(cwd)
	if err != nil {
		t.Fatal(err)
	}
	if modPath != "coscale" {
		t.Fatalf("unexpected module path %q", modPath)
	}
	return root
}

func testdataDir(t *testing.T) string {
	t.Helper()
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Join(cwd, "testdata")
}
