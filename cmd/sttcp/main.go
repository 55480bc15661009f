// Command sttcp is the single front door to the ST-TCP testbed of "A System
// Demonstration of ST-TCP" (DSN 2005); the command table below says what is
// behind it. `sttcp help` prints every subcommand with its flags, and
// README.md "Command-line reference" is that output as a table.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

// command is one subcommand. setup registers its flags on fs and returns
// the function that runs it once they are parsed.
type command struct {
	name, args, summary string
	setup               func(fs *flag.FlagSet) func(stdout io.Writer) error
}

var commands = []command{
	{"demo", "[flags]", "run the paper's demonstrations, Table 1 and the extended studies from the registry", setupDemo},
	{"lab", "[flags] <script.sttcp | ->", "run a scripted failure scenario and judge its expectations", setupLab},
	{"chaos", "[flags]", "run a seeded chaos campaign judged by the invariant registry", setupChaos},
	{"explore", "[flags]", "exhaustively explore tie-break orders and fault placements in a failover window", setupExplore},
	{"report", "[flags] REPORT.json", "render a run report as a dashboard", setupReport},
	{"vet", "[flags] [patterns...]", "run the domain static-analysis suite over the module", setupVet},
}

// exitError is an error with its own exit status: 2 for usage and I/O
// mistakes, 3 for an exploration that did not close. Plain errors exit 1.
type exitError struct {
	code int
	error
}

func usageErr(format string, args ...any) error {
	return exitError{2, fmt.Errorf(format, args...)}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run dispatches args to a subcommand and returns the process exit status.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	switch args[0] {
	case "help", "-h", "-help", "--help":
		usage(stdout)
		for _, c := range commands {
			fmt.Fprintln(stdout)
			c.run([]string{"-h"}, stdout, stdout)
		}
		return 0
	}
	if c, ok := commandByName(args[0]); ok {
		return c.run(args[1:], stdout, stderr)
	}
	fmt.Fprintf(stderr, "sttcp: unknown subcommand %q\n\n", args[0])
	usage(stderr)
	return 2
}

func commandByName(name string) (command, bool) {
	for _, c := range commands {
		if c.name == name {
			return c, true
		}
	}
	return command{}, false
}

// flagSet returns the subcommand's FlagSet with its flags registered, and
// the function that runs the subcommand once they are parsed.
func (c command) flagSet(stderr io.Writer) (*flag.FlagSet, func(stdout io.Writer) error) {
	fs := flag.NewFlagSet("sttcp "+c.name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: sttcp %s %s\n  %s\n", c.name, c.args, c.summary)
		fs.PrintDefaults()
	}
	return fs, c.setup(fs)
}

func (c command) run(args []string, stdout, stderr io.Writer) int {
	fs, exec := c.flagSet(stderr)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	err := exec(stdout)
	if err == nil {
		return 0
	}
	fmt.Fprintf(stderr, "sttcp %s: %v\n", c.name, err)
	var ee exitError
	if errors.As(err, &ee) {
		return ee.code
	}
	return 1
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: sttcp <subcommand> [flags] [args]   (sttcp help lists every flag)")
	for _, c := range commands {
		fmt.Fprintf(w, "  %-8s %s\n", c.name, c.summary)
	}
}
