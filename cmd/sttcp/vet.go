package main

import (
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
// directory; its usage text lists the analyzers. Exit status 0 means
// clean, 1 diagnostics, 2 a load or usage error. Suppressions are audited
// in source, never on the command line:
//
//	return time.Now() //sttcp:allow simdeterminism host-time measurement, never fed to an event loop
func setupVet(fs *flag.FlagSet) func(io.Writer) error {
	format := fs.String("format", "text", "diagnostic format: text or github (workflow annotations)")
	flagUsage := fs.Usage
	fs.Usage = func() {
		flagUsage()
		fmt.Fprintln(fs.Output(), "analyzers (all run; DESIGN.md §10 has the table):")
		for _, a := range analysis.Analyzers() {
			fmt.Fprintf(fs.Output(), "  %-16s %s\n", a.Name, a.Doc)
		}
	}

	return func(stdout io.Writer) error {
		if *format != "text" && *format != "github" {
			return usageErr("unknown -format %q (text or github)", *format)
		}
		patterns := fs.Args()
		if len(patterns) == 0 {
			patterns = []string{"./..."}
		}
		moduleDir, pkgs, err := load(patterns)
		if err != nil {
			return exitError{2, err}
		}

		diags := analysis.Run(pkgs, analysis.Analyzers())
		for _, d := range diags {
			if *format == "github" {
				fmt.Fprintf(stdout, "::error file=%s,line=%d,col=%d,title=sttcp vet %s::%s\n",
					relPath(moduleDir, d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
			} else {
				fmt.Fprintln(stdout, d)
			}
		}
		if len(diags) > 0 {
			return fmt.Errorf("%d diagnostic(s)", len(diags))
		}
		return nil
	}
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
