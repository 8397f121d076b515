// Package analyzertest runs one analyzer over a testdata package and
// checks its diagnostics against `// want` comments, in the style of
// golang.org/x/tools' analysistest (which this module deliberately does
// not depend on):
//
//	it := open() // want `never consulted`
//	ok := fine() // no comment: any diagnostic here fails the test
//
// A want comment holds one or more quoted regular expressions; each must
// be matched, on that file and line, by exactly one diagnostic message.
// Diagnostics on lines without a matching want fail the test, so the
// testdata encodes flag cases and no-flag cases with equal force.
//
// Testdata packages live under testdata/src/<name>/ next to the analyzer
// (the testdata directory keeps go build away from them) and may import
// real module packages: the harness resolves every import through
// `go list -export -deps`, so the testdata type-checks against the same
// compiled export data the lint gate uses. The synthesized import path
// places the testdata inside the module, which lets it declare its own
// sentinels, All2-shaped methods and lock-bearing structs and have the
// module-scoped analyzers treat them as first-party code.
package analyzertest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"cqrep/internal/analyzers"
)

// Run analyzes testdata/src/<name> with a and reports mismatches between
// its diagnostics and the package's want comments as test errors.
func Run(t *testing.T, a *analyzers.Analyzer, name string) {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata files in %s: %v", dir, err)
	}
	sort.Strings(files)

	exports, err := exportData(dir, files)
	if err != nil {
		t.Fatalf("resolving testdata imports: %v", err)
	}
	importPath := analyzers.ModulePath + "/lint_testdata/" + name
	pkg, err := analyzers.TypecheckFiles(importPath, files, nil, exports)
	if err != nil {
		t.Fatalf("type-checking %s: %v", dir, err)
	}
	findings, err := analyzers.RunAnalyzers(pkg, []*analyzers.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}

	wants := collectWants(t, pkg.Fset, pkg.Files)
	matchFindings(t, wants, findings)
}

// want is one expected diagnostic: a regexp anchored to a file and line.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// collectWants parses `// want "re" ...` comments from every file.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []*want {
	t.Helper()
	var wants []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, expr := range splitQuoted(text) {
					re, err := regexp.Compile(expr)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, expr, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

// splitQuoted extracts the double- or back-quoted expressions from the
// remainder of a want comment.
func splitQuoted(s string) []string {
	var out []string
	for {
		s = strings.TrimSpace(s)
		if s == "" {
			return out
		}
		q := s[0]
		if q != '"' && q != '`' {
			return out
		}
		end := strings.IndexByte(s[1:], q)
		if end < 0 {
			return out
		}
		raw := s[:end+2]
		if q == '"' {
			if unq, err := strconv.Unquote(raw); err == nil {
				out = append(out, unq)
			}
		} else {
			out = append(out, raw[1:len(raw)-1])
		}
		s = s[end+2:]
	}
}

// matchFindings pairs diagnostics with wants one-to-one and reports
// leftovers on both sides.
func matchFindings(t *testing.T, wants []*want, findings []analyzers.Finding) {
	t.Helper()
	for _, f := range findings {
		matched := false
		for _, w := range wants {
			if w.hit || w.file != f.Position.Filename || w.line != f.Position.Line {
				continue
			}
			if w.re.MatchString(f.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic at %s: %s", f.Position, f.Message)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.re)
		}
	}
}

// exportData parses the testdata files for their imports and resolves
// compiled export data for each (and its dependencies) via go list.
func exportData(dir string, files []string) (map[string]string, error) {
	fset := token.NewFileSet()
	seen := make(map[string]bool)
	var paths []string
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			return nil, err
		}
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil || seen[p] {
				continue
			}
			seen[p] = true
			paths = append(paths, p)
		}
	}
	exports := make(map[string]string)
	if len(paths) == 0 {
		return exports, nil
	}
	sort.Strings(paths)
	args := append([]string{"list", "-deps", "-export", "-json=ImportPath,Export"}, paths...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir // inside the module, so module import paths resolve
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(paths, " "), err, stderr.Bytes())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var lp struct {
			ImportPath string
			Export     string
		}
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
	}
	return exports, nil
}
