package lint

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// The escapes gate wires the compiler's own escape analysis into the hot-
// path perf story: `coscale-lint -escapes` runs `go build -gcflags=-m`,
// keeps every heap-escape diagnostic that falls inside a (transitively)
// //hot:path function — the same closure hotprop checks — and compares the
// result against the committed ESCAPES_baseline.json. A hot function that
// gains a heap escape fails the gate before any benchmark has to notice the
// allocation; `coscale-lint -escapes -update` (make escapes-baseline)
// re-records the baseline after a reviewed change.
//
// Records are matched by (file, function, message) with multiplicity, not
// by line number, and the baseline stores no line numbers, so unrelated
// edits that shift lines churn neither the gate nor the baseline file. Escape analysis results legitimately differ between compiler
// versions; the baseline records the go version that produced it, and a
// mismatched toolchain downgrades failures to warnings so the gate only
// bites where its baseline is comparable.

// An EscapeRecord is one compiler heap-escape diagnostic attributed to a
// transitively hot function.
type EscapeRecord struct {
	File    string `json:"file"`    // module-root-relative, slash-separated
	Line    int    `json:"-"`       // the fresh compile's line; not recorded in the baseline
	Func    string `json:"func"`    // display name, e.g. "perf.(*StepTable).Reset"
	Message string `json:"message"` // e.g. "make([]float64, n) escapes to heap"
}

func (r EscapeRecord) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", r.File, r.Line, r.Func, r.Message)
}

// escapeKey identifies a record for baseline matching, deliberately
// ignoring the line number.
type escapeKey struct{ File, Func, Message string }

// EscapeBaseline is the schema of ESCAPES_baseline.json.
type EscapeBaseline struct {
	Go      string         `json:"go"` // runtime.Version() that produced the records
	Escapes []EscapeRecord `json:"escapes"`
}

// escapeLine matches one compiler diagnostic line.
var escapeLine = regexp.MustCompile(`^(.+\.go):(\d+):\d+: (.+)$`)

// isEscapeMessage keeps the heap-escape diagnostics and drops inlining and
// does-not-escape chatter.
func isEscapeMessage(msg string) bool {
	return strings.HasSuffix(msg, "escapes to heap") || strings.HasPrefix(msg, "moved to heap:")
}

// hotRanges maps each (root-relative) file to the hot-closure functions it
// holds, as line intervals in ascending order.
type hotRange struct {
	start, end int
	fn         *FuncInfo
}

// collectHotRanges indexes the hot closure's function bodies by file and
// line span.
func collectHotRanges(prog *Program, root string) map[string][]hotRange {
	reach := hotClosure(prog)
	ranges := map[string][]hotRange{}
	for _, f := range reach.Order() {
		start := prog.Fset().Position(f.Decl.Pos())
		end := prog.Fset().Position(f.Decl.End())
		file := start.Filename
		if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = filepath.ToSlash(rel)
		}
		ranges[file] = append(ranges[file], hotRange{start: start.Line, end: end.Line, fn: f})
	}
	for file := range ranges {
		rs := ranges[file]
		sort.Slice(rs, func(i, j int) bool { return rs[i].start < rs[j].start })
		ranges[file] = rs
	}
	return ranges
}

// compilerEscapes runs the compiler's escape analysis over the whole module
// and returns the raw diagnostics. The -m output is replayed from the build
// cache on repeat runs, so the gate costs one real build at most.
func compilerEscapes(root string) ([]string, error) {
	cmd := exec.Command("go", "build", "-gcflags=-m", "./...")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go build -gcflags=-m: %v\n%s", err, out)
	}
	return strings.Split(string(out), "\n"), nil
}

// hotEscapes filters compiler diagnostics down to heap escapes inside the
// hot closure, in (file, function, message, line) order: the baseline's
// order, which does not move when lines shift.
func hotEscapes(lines []string, ranges map[string][]hotRange) []EscapeRecord {
	var recs []EscapeRecord
	for _, line := range lines {
		m := escapeLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil || !isEscapeMessage(m[3]) {
			continue
		}
		file := filepath.ToSlash(m[1])
		lineNo, err := strconv.Atoi(m[2])
		if err != nil {
			continue
		}
		for _, r := range ranges[file] {
			if lineNo >= r.start && lineNo <= r.end {
				recs = append(recs, EscapeRecord{File: file, Line: lineNo, Func: r.fn.Name(), Message: m[3]})
				break
			}
		}
	}
	sort.Slice(recs, func(i, j int) bool {
		a, b := recs[i], recs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Func != b.Func {
			return a.Func < b.Func
		}
		if a.Message != b.Message {
			return a.Message < b.Message
		}
		return a.Line < b.Line
	})
	return recs
}

// runEscapes implements the -escapes mode. With update it rewrites the
// baseline; otherwise it diffs current hot-closure escapes against the
// baseline and fails on new ones.
func runEscapes(prog *Program, root, baselinePath string, update bool, stdout, stderr io.Writer) int {
	ranges := collectHotRanges(prog, root)
	lines, err := compilerEscapes(root)
	if err != nil {
		fmt.Fprintln(stderr, "coscale-lint:", err)
		return ExitError
	}
	recs := hotEscapes(lines, ranges)

	if update {
		data, err := json.MarshalIndent(EscapeBaseline{Go: runtime.Version(), Escapes: recs}, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, "coscale-lint:", err)
			return ExitError
		}
		if err := os.WriteFile(baselinePath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, "coscale-lint:", err)
			return ExitError
		}
		fmt.Fprintf(stdout, "wrote %s: %d hot-closure escapes under %s\n",
			baselinePath, len(recs), runtime.Version())
		return ExitClean
	}
	return checkEscapes(recs, baselinePath, stdout, stderr)
}

// checkEscapes diffs the hot-closure escapes recs against the baseline at
// baselinePath and fails on new ones.
func checkEscapes(recs []EscapeRecord, baselinePath string, stdout, stderr io.Writer) int {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		fmt.Fprintf(stderr, "coscale-lint: no escapes baseline: %v (run coscale-lint -escapes -update)\n", err)
		return ExitError
	}
	var base EscapeBaseline
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(stderr, "coscale-lint: %s: %v\n", baselinePath, err)
		return ExitError
	}

	allowed := map[escapeKey]int{}
	for _, r := range base.Escapes {
		allowed[escapeKey{r.File, r.Func, r.Message}]++
	}
	var fresh []EscapeRecord
	for _, r := range recs {
		k := escapeKey{r.File, r.Func, r.Message}
		if allowed[k] > 0 {
			allowed[k]--
			continue
		}
		fresh = append(fresh, r)
	}
	var gone int
	for _, n := range allowed {
		gone += n
	}

	versionMismatch := base.Go != runtime.Version()
	if versionMismatch {
		fmt.Fprintf(stderr, "coscale-lint: warning: escapes baseline was built with %s, running %s; escape analysis differs across compilers — reporting only (regenerate with make escapes-baseline)\n",
			base.Go, runtime.Version())
	}
	for _, r := range fresh {
		fmt.Fprintf(stdout, "%s (new heap escape in hot closure)\n", r)
	}
	if gone > 0 {
		fmt.Fprintf(stderr, "coscale-lint: note: %d baseline escape(s) no longer present; tighten with make escapes-baseline\n", gone)
	}
	if len(fresh) > 0 && !versionMismatch {
		fmt.Fprintf(stderr, "coscale-lint: %d new heap escape(s) in the //hot:path closure (baseline %s)\n", len(fresh), baselinePath)
		return ExitFindings
	}
	fmt.Fprintf(stdout, "escapes: %d hot-closure escapes, baseline %d, no regressions\n", len(recs), len(base.Escapes))
	return ExitClean
}
