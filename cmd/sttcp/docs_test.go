package main

import (
	"errors"
	"flag"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the quoted blocks of EXPERIMENTS.md from the current output of their commands")

// The documents that show sttcp command lines, relative to this package.
const experimentsDoc = "../../EXPERIMENTS.md"

var docs = []string{"../../README.md", "../../DESIGN.md", experimentsDoc, "../../.claude/skills/verify/SKILL.md"}

// quoted matches one quoted block: a marker comment that is the command
// line, a fence holding that command's stdout byte for byte, the closing
// marker.
var quoted = regexp.MustCompile("(?s)<!-- (sttcp [^\n]*?) -->\n```\n(.*?)```\n<!-- /sttcp -->\n")

// TestExperimentsQuotesTheTool: every paper number in EXPERIMENTS.md sits
// in a block quoted from `sttcp demo` (and the explorer's closure verdicts in
// two from `sttcp explore`), so a protocol change that moves one
// fails here, naming the command, until the doc is regenerated on purpose:
//
//	go test ./cmd/sttcp -run ExperimentsQuotesTheTool -update
func TestExperimentsQuotesTheTool(t *testing.T) {
	raw, err := os.ReadFile(experimentsDoc)
	if err != nil {
		t.Fatal(err)
	}
	doc, blocks := string(raw), 0
	fresh := quoted.ReplaceAllStringFunc(doc, func(block string) string {
		blocks++
		m := quoted.FindStringSubmatch(block)
		line, was := m[1], m[2]
		code, out, errb := cli(strings.Fields(line)[1:]...)
		if code != 0 {
			t.Errorf("%s: exit %d\nstderr: %s", line, code, errb)
			return block
		}
		if out != was && !*update {
			t.Errorf("%s: EXPERIMENTS.md no longer quotes what the command prints (-update rewrites the block)\n--- quoted\n%s--- printed\n%s", line, was, out)
		}
		return "<!-- " + line + " -->\n```\n" + out + "```\n<!-- /sttcp -->\n"
	})
	if blocks < 10 || strings.Count(doc, "<!-- sttcp ") != blocks || strings.Count(doc, "<!-- /sttcp -->") != blocks {
		t.Errorf("%d well-formed quoted blocks for %d opening and %d closing markers", blocks,
			strings.Count(doc, "<!-- sttcp "), strings.Count(doc, "<!-- /sttcp -->"))
	}
	if *update && fresh != doc && !t.Failed() {
		if err := os.WriteFile(experimentsDoc, []byte(fresh), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPaperClaimsIndexExperiments: PAPER.md is the paper's claims list, each
// claim naming the marker comment of the EXPERIMENTS.md block that answers
// it; every marker it names must open a quoted block there.
func TestPaperClaimsIndexExperiments(t *testing.T) {
	paper, err := os.ReadFile("../../PAPER.md")
	if err != nil {
		t.Fatal(err)
	}
	experiments, err := os.ReadFile(experimentsDoc)
	if err != nil {
		t.Fatal(err)
	}
	markers := regexp.MustCompile("`(<!-- sttcp [^`]*? -->)`").FindAllStringSubmatch(string(paper), -1)
	if len(markers) < 15 {
		t.Fatalf("PAPER.md names %d markers; the claims list is gone or the extraction is broken", len(markers))
	}
	for _, m := range markers {
		if !strings.Contains(string(experiments), "\n"+m[1]+"\n```\n") {
			t.Errorf("PAPER.md cites %s, which opens no quoted block of EXPERIMENTS.md", m[1])
		}
	}
}

// commandLine matches an sttcp invocation inside code: the subcommand and
// everything up to the end of the shell command it is part of.
var commandLine = regexp.MustCompile("(?:^|\\s|cmd/)sttcp ([a-z]+)([^`|#&;>()\n]*)")

// codeIn returns the pieces of a Markdown document that are code: the
// lines of fenced and indented blocks, and inline spans.
func codeIn(doc string) []string {
	var code []string
	fenced := false
	for _, line := range strings.Split(doc, "\n") {
		switch {
		case strings.HasPrefix(strings.TrimSpace(line), "```"):
			fenced = !fenced
		case fenced || strings.HasPrefix(line, "    "):
			code = append(code, line)
		default:
			for i, span := range strings.Split(line, "`") {
				if i%2 == 1 {
					code = append(code, span)
				}
			}
		}
	}
	return code
}

// TestDocumentedCommandLinesParse: every sttcp command line the docs show
// names a subcommand of the table and parses against that subcommand's
// flags (parsed, not run) — a deleted subcommand or flag cannot linger in
// a document.
func TestDocumentedCommandLinesParse(t *testing.T) {
	seen := 0
	for _, path := range docs {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, code := range codeIn(string(raw)) {
			for _, m := range commandLine.FindAllStringSubmatch(code, -1) {
				seen++
				name, args := m[1], strings.Fields(m[2])
				if name == "help" {
					continue
				}
				cmd, ok := commandByName(name)
				if !ok {
					t.Errorf("%s: %q names no subcommand", path, strings.TrimSpace(m[0]))
					continue
				}
				fs, _ := cmd.flagSet(io.Discard)
				if err := fs.Parse(args); err != nil && !errors.Is(err, flag.ErrHelp) {
					t.Errorf("%s: %q does not parse: %v", path, strings.TrimSpace(m[0]), err)
				}
			}
		}
	}
	if seen < 40 {
		t.Errorf("found only %d sttcp command lines in %v; the extraction is broken", seen, docs)
	}
}
