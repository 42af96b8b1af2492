package coscale

import (
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
)

// TestDocReferencesExist: every code span in the top-level docs that names
// a repository path (internal/…, cmd/…, examples/…), a Go file (by base
// name) or a make target must name something that exists, so the docs
// cannot keep describing code that was deleted or renamed. Fenced blocks
// are shell sessions and are not checked.
func TestDocReferencesExist(t *testing.T) {
	goFiles := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == ".git" {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			goFiles[d.Name()] = true
		}
		return nil
	})
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
		text := fencedBlock.ReplaceAllString(string(b), "")
		for _, m := range codeSpan.FindAllStringSubmatch(text, -1) {
			span := m[1]
			if fields := strings.Fields(span); len(fields) > 0 && isRepoPath(fields[0]) {
				for _, p := range expandBraces(strings.TrimRight(fields[0], ".,;:)")) {
					if _, err := os.Stat(p); err != nil {
						t.Errorf("%s: `%s` names missing path %s", doc, span, p)
					}
				}
			}
			for _, name := range goFileName.FindAllString(span, -1) {
				if !goFiles[filepath.Base(name)] {
					t.Errorf("%s: `%s` names missing Go file %s", doc, span, name)
				}
			}
			if mc := makeCommand.FindStringSubmatch(span); mc != nil && !targets[mc[1]] {
				t.Errorf("%s: `%s` names missing make target %s", doc, span, mc[1])
			}
		}
	}
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
