package analysis

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// expectation is one `// want "regex"` comment in a corpus file.
type expectation struct {
	file    string
	line    int
	rx      *regexp.Regexp
	matched bool
}

var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)
var wantArgRE = regexp.MustCompile("\"((?:[^\"\\\\]|\\\\.)*)\"|`([^`]*)`")

// checkExpectations loads the packages under (moduleDir, modulePath)
// matching patterns, runs the given analyzers, and verifies the
// diagnostics against `// want "regex"` comments in the sources: every
// diagnostic must match a want on its line, and every want must be hit.
// It returns a list of human-readable problems (empty means pass). This
// is the test harness for the analyzer corpora.
func checkExpectations(moduleDir, modulePath string, patterns []string, analyzers ...*Analyzer) ([]string, error) {
	loader, err := NewLoader(moduleDir, modulePath)
	if err != nil {
		return nil, err
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		return nil, err
	}
	var expects []*expectation
	seenFiles := map[string]bool{}
	for _, pkg := range pkgs {
		// Test files carry wants too: the structure analyzer reads them.
		names, _ := filepath.Glob(filepath.Join(pkg.Dir, "*_test.go"))
		for _, f := range pkg.Files {
			names = append(names, pkg.Fset.Position(f.Pos()).Filename)
		}
		for _, name := range names {
			if seenFiles[name] {
				continue
			}
			seenFiles[name] = true
			fileExpects, err := parseWants(name)
			if err != nil {
				return nil, err
			}
			expects = append(expects, fileExpects...)
		}
	}

	diags := Run(pkgs, analyzers)
	var problems []string
	for _, d := range diags {
		matched := false
		for _, e := range expects {
			if e.file == d.Pos.Filename && e.line == d.Pos.Line && e.rx.MatchString(d.Message) {
				e.matched = true
				matched = true
			}
		}
		if !matched {
			problems = append(problems, fmt.Sprintf("unexpected diagnostic: %s", d))
		}
	}
	for _, e := range expects {
		if !e.matched {
			problems = append(problems, fmt.Sprintf("%s:%d: expected diagnostic matching %q, got none", filepath.Base(e.file), e.line, e.rx))
		}
	}
	return problems, nil
}

// parseWants extracts the want expectations of one source file.
func parseWants(filename string) ([]*expectation, error) {
	f, err := os.Open(filename)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []*expectation
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		m := wantRE.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		args := wantArgRE.FindAllStringSubmatch(m[1], -1)
		if len(args) == 0 {
			return nil, fmt.Errorf("%s:%d: malformed want comment (need quoted regexps)", filename, line)
		}
		for _, a := range args {
			pat := a[2] // backquoted form: taken verbatim
			if a[1] != "" || a[2] == "" {
				pat = strings.ReplaceAll(a[1], `\"`, `"`)
			}
			rx, err := regexp.Compile(pat)
			if err != nil {
				return nil, fmt.Errorf("%s:%d: bad want regexp: %v", filename, line, err)
			}
			out = append(out, &expectation{file: filename, line: line, rx: rx})
		}
	}
	return out, sc.Err()
}
