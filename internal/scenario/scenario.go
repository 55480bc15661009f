// Package scenario implements a small line-oriented language for scripting
// ST-TCP failure demonstrations, compiled to an experiment.Plan that runs
// on the simulated testbed. It powers `sttcp lab`: the conference-demo workflow
// of "start a workload, break something at a chosen moment, watch the
// client" as a reproducible text file.
//
// A script is a sequence of lines; '#' starts a comment. Three statement
// groups exist, in any order except that options must precede everything
// else:
//
//	option hb <duration>          heartbeat period (default 200ms)
//	option seed <int>             simulation seed (default 42)
//	option logger                 deploy the §4.3 logger machine
//	option witness                deploy the §4.2.2 witness replica
//	option maxdelayfin <duration> shrink the FIN gate for short runs
//
//	client download <size>        start a verified download (e.g. 16MiB)
//	client echo <rounds> <size>   start an echo session (e.g. 500 1KiB)
//
//	at <time> crash <host>        HW/OS crash (primary|backup|witness|gateway,
//	                              or a role: serving|standby)
//	at <time> appcrash <host> <silent|cleanup>
//	at <time> nicfail <host>
//	at <time> drop <host> <dur>   drop all frames toward host for dur
//	at <time> serialcut           cut the null-modem cable (both ends)
//	at <time> starve <host> <factor> <dur>  CPU-starve host by factor for dur
//	at <time> reboot <host>
//	at <time> rejoin              reintegrate the rebooted machine as backup
//
//	run <duration>                advance virtual time
//	expect <cond>                 assert: takeover | non-ft | no-failover |
//	                              clients-done | recovery | active
//
// Times in `at` statements are absolute virtual times from the start of the
// run. A client starts, and an expect is judged, at the virtual time the
// runs before it reach, and an `at` earlier than that is an error (equal is
// fine). Every action is an experiment.Fault, validated by the testbed
// before the run starts; a script with no `at` at all must end
// failure-free. A host may be a role, serving or standby, which the
// testbed resolves to the machine holding it when the action strikes.
// The vocabulary is the one the demos, Table 1 and the chaos campaigns
// inject through; its chaos-born kinds (loss, delay, txcut, corrupt,
// serialcorrupt, nicflap, serialflap, clockskew) have no verb here yet.
package scenario

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiment"
)

// Verb enumerates statement kinds.
type Verb int

// Statement verbs.
const (
	VerbOption Verb = iota + 1
	VerbClient
	VerbAt
	VerbRun
	VerbExpect
)

// Statement is one parsed line. A client or at statement is parsed straight
// into the testbed's vocabulary; the compiler only places it in time.
type Statement struct {
	Line int
	Verb Verb

	// Option fields.
	OptionName  string
	OptionValue string

	// Client is the workload a client statement starts.
	Client experiment.Workload
	// Fault is the action an at statement strikes, At its time.
	Fault experiment.Fault

	// RunFor is how far a run statement advances virtual time.
	RunFor time.Duration

	// Cond is the condition an expect statement asserts.
	Cond string
}

// Script is a parsed scenario.
type Script struct {
	Statements []Statement
}

// ParseError reports a syntax error with its line number.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("scenario: line %d: %s", e.Line, e.Msg)
}

func errf(line int, format string, args ...any) error {
	return &ParseError{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// Parse reads a script from text.
func Parse(text string) (*Script, error) {
	var sc Script
	optionsDone := false
	for i, raw := range strings.Split(text, "\n") {
		line := i + 1
		if idx := strings.IndexByte(raw, '#'); idx >= 0 {
			raw = raw[:idx]
		}
		fields := strings.Fields(raw)
		if len(fields) == 0 {
			continue
		}
		st := Statement{Line: line}
		switch fields[0] {
		case "option":
			if optionsDone {
				return nil, errf(line, "options must precede other statements")
			}
			if err := parseOption(&st, fields); err != nil {
				return nil, err
			}
		case "client":
			optionsDone = true
			if err := parseClient(&st, fields); err != nil {
				return nil, err
			}
		case "at":
			optionsDone = true
			if err := parseAt(&st, fields); err != nil {
				return nil, err
			}
		case "run":
			optionsDone = true
			if len(fields) != 2 {
				return nil, errf(line, "usage: run <duration>")
			}
			d, err := time.ParseDuration(fields[1])
			if err != nil || d <= 0 {
				return nil, errf(line, "bad duration %q", fields[1])
			}
			st.Verb = VerbRun
			st.RunFor = d
		case "expect":
			optionsDone = true
			if len(fields) != 2 {
				return nil, errf(line, "usage: expect <condition>")
			}
			switch fields[1] {
			case "takeover", "non-ft", "no-failover", "clients-done", "recovery", "active":
				st.Verb = VerbExpect
				st.Cond = fields[1]
			default:
				return nil, errf(line, "unknown condition %q", fields[1])
			}
		default:
			return nil, errf(line, "unknown statement %q", fields[0])
		}
		sc.Statements = append(sc.Statements, st)
	}
	if len(sc.Statements) == 0 {
		return nil, errf(0, "empty script")
	}
	return &sc, nil
}

func parseOption(st *Statement, fields []string) error {
	st.Verb = VerbOption
	switch {
	case len(fields) == 2 && (fields[1] == "logger" || fields[1] == "witness"):
		st.OptionName = fields[1]
	case len(fields) == 3 && (fields[1] == "hb" || fields[1] == "seed" || fields[1] == "maxdelayfin"):
		st.OptionName = fields[1]
		st.OptionValue = fields[2]
		switch fields[1] {
		case "hb", "maxdelayfin":
			if _, err := time.ParseDuration(fields[2]); err != nil {
				return errf(st.Line, "bad duration %q", fields[2])
			}
		case "seed":
			if _, err := strconv.ParseInt(fields[2], 10, 64); err != nil {
				return errf(st.Line, "bad seed %q", fields[2])
			}
		}
	default:
		return errf(st.Line, "usage: option hb <dur> | option seed <n> | option logger | option witness | option maxdelayfin <dur>")
	}
	return nil
}

func parseClient(st *Statement, fields []string) error {
	st.Verb = VerbClient
	if len(fields) < 3 {
		return errf(st.Line, "usage: client download <size> | client echo <rounds> <size>")
	}
	switch fields[1] {
	case "download":
		size, err := ParseSize(fields[2])
		if err != nil {
			return errf(st.Line, "bad size %q", fields[2])
		}
		st.Client = experiment.Workload{Bytes: size}
	case "echo":
		if len(fields) != 4 {
			return errf(st.Line, "usage: client echo <rounds> <size>")
		}
		rounds, err := strconv.Atoi(fields[2])
		if err != nil || rounds <= 0 {
			return errf(st.Line, "bad rounds %q", fields[2])
		}
		size, err := ParseSize(fields[3])
		if err != nil {
			return errf(st.Line, "bad size %q", fields[3])
		}
		st.Client = experiment.Workload{Echo: true, Rounds: rounds, MsgSize: int(size), Gap: 5 * time.Millisecond}
	default:
		return errf(st.Line, "unknown client kind %q", fields[1])
	}
	return nil
}

func parseAt(st *Statement, fields []string) error {
	st.Verb = VerbAt
	if len(fields) < 3 {
		return errf(st.Line, "usage: at <time> <action> ...")
	}
	when, err := time.ParseDuration(fields[1])
	if err != nil || when < 0 {
		return errf(st.Line, "bad time %q", fields[1])
	}
	action, rest := fields[2], fields[3:]
	st.Fault = experiment.Fault{At: when, Kind: experiment.FaultKind(action)}
	// args checks the arguments after the host, which every action but
	// serialcut and rejoin names first.
	args := func(n int, usage string) error {
		if len(rest) < 1 {
			return errf(st.Line, "%s needs a host", action)
		}
		switch rest[0] {
		case "primary", "backup", "witness", "gateway", "client", "serving", "standby":
			st.Fault.Host = rest[0]
		default:
			return errf(st.Line, "unknown host %q", rest[0])
		}
		if len(rest) != n+1 {
			return errf(st.Line, "%s", usage)
		}
		return nil
	}
	dur := func(s string) error {
		st.Fault.Dur, err = time.ParseDuration(s)
		if err != nil {
			return errf(st.Line, "bad duration %q", s)
		}
		return nil
	}
	switch action {
	case "crash", "nicfail", "reboot":
		return args(0, action+" takes exactly one host")
	case "appcrash":
		if err := args(1, "usage: appcrash <host> silent|cleanup"); err != nil {
			return err
		}
		if rest[1] != "silent" && rest[1] != "cleanup" {
			return errf(st.Line, "usage: appcrash <host> silent|cleanup")
		}
		st.Fault.Kind += experiment.FaultKind("-" + rest[1])
	case "drop":
		if err := args(1, "usage: drop <host> <duration>"); err != nil {
			return err
		}
		return dur(rest[1])
	case "starve":
		if err := args(2, "usage: starve <host> <factor> <duration>"); err != nil {
			return err
		}
		scale, err := strconv.ParseFloat(rest[1], 64)
		if err != nil || scale < 1 {
			return errf(st.Line, "bad starve factor %q (want >= 1)", rest[1])
		}
		st.Fault.Scale = scale
		return dur(rest[2])
	case "serialcut", "rejoin":
		if len(rest) != 0 {
			return errf(st.Line, "%s takes no arguments", action)
		}
	default:
		return errf(st.Line, "unknown action %q", action)
	}
	return nil
}

// ParseSize parses sizes like "512", "64KiB", "16MiB", "1GiB".
func ParseSize(s string) (int64, error) {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "GiB"):
		mult, s = 1<<30, strings.TrimSuffix(s, "GiB")
	case strings.HasSuffix(s, "MiB"):
		mult, s = 1<<20, strings.TrimSuffix(s, "MiB")
	case strings.HasSuffix(s, "KiB"):
		mult, s = 1<<10, strings.TrimSuffix(s, "KiB")
	case strings.HasSuffix(s, "B"):
		s = strings.TrimSuffix(s, "B")
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("scenario: bad size %q", s)
	}
	return n * mult, nil
}
