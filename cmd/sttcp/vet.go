package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

// setupVet is `sttcp vet`: the domain static-analysis suite of
// internal/analysis over the module found by walking up from the working
// directory. Exit status 0 means clean, 1 diagnostics, 2 a load or usage
// error. Suppressions are audited in source, never on the command line:
//
//	t := time.Now() //sttcp:allow simdeterminism wall budget for the campaign loop
func setupVet(fs *flag.FlagSet) func(io.Writer) error {
	only := fs.String("run", "", "comma-separated analyzer names to run (default: all)")
	format := fs.String("format", "text", "diagnostic format: text, github (workflow annotations), or json (an array of {file,line,col,analyzer,message})")
	list := fs.Bool("list", false, "list the analyzers and exit")

	return func(stdout io.Writer) error {
		switch *format {
		case "text", "github", "json":
		default:
			return usageErr("unknown -format %q (text, github, or json)", *format)
		}
		if *list {
			for _, a := range analysis.Analyzers() {
				fmt.Fprintf(stdout, "%-16s %s\n", a.Name, a.Doc)
			}
			return nil
		}
		analyzers := analysis.Analyzers()
		if *only != "" {
			analyzers = nil
			for _, name := range strings.Split(*only, ",") {
				a := analysis.ByName(strings.TrimSpace(name))
				if a == nil {
					return usageErr("unknown analyzer %q (try -list)", name)
				}
				analyzers = append(analyzers, a)
			}
		}
		patterns := fs.Args()
		if len(patterns) == 0 {
			patterns = []string{"./..."}
		}
		moduleDir, pkgs, err := load(patterns)
		if err != nil {
			return exitError{2, err}
		}

		diags := analysis.Run(pkgs, analyzers)
		// JSON is always an array, never null, so a clean run is `[]`.
		rows := make([]jsonDiagnostic, 0, len(diags))
		for _, d := range diags {
			row := jsonDiagnostic{relPath(moduleDir, d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message}
			rows = append(rows, row)
			switch *format {
			case "github":
				fmt.Fprintf(stdout, "::error file=%s,line=%d,col=%d,title=sttcp vet %s::%s\n",
					row.File, row.Line, row.Col, row.Analyzer, row.Message)
			case "text":
				fmt.Fprintln(stdout, d)
			}
		}
		if *format == "json" {
			enc := json.NewEncoder(stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(rows); err != nil {
				return exitError{2, err}
			}
		}
		if len(diags) > 0 {
			return fmt.Errorf("%d diagnostic(s)", len(diags))
		}
		return nil
	}
}

// jsonDiagnostic is the machine-readable report row: module-relative
// path, 1-based position, analyzer, message.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// relPath renders a diagnostic path relative to the module root with
// forward slashes, falling back to the absolute path outside the module.
func relPath(moduleDir, file string) string {
	if r, err := filepath.Rel(moduleDir, file); err == nil && !strings.HasPrefix(r, "..") {
		return filepath.ToSlash(r)
	}
	return file
}

// load walks up from the working directory to the enclosing go.mod and
// loads the packages matching patterns from that module.
func load(patterns []string) (moduleDir string, pkgs []*analysis.Package, err error) {
	if moduleDir, err = os.Getwd(); err != nil {
		return "", nil, err
	}
	for {
		if _, err := os.Stat(filepath.Join(moduleDir, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(moduleDir)
		if parent == moduleDir {
			return "", nil, fmt.Errorf("no go.mod above the working directory")
		}
		moduleDir = parent
	}
	loader, err := analysis.NewLoader(moduleDir, "")
	if err != nil {
		return "", nil, err
	}
	pkgs, err = loader.Load(patterns...)
	return moduleDir, pkgs, err
}
