// Package scenario implements a small line-oriented language for scripting
// ST-TCP failure demonstrations, and an executor that runs scripts on the
// simulated testbed. It powers `sttcp lab`: the conference-demo workflow
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
//	option suspicion              enable the gray-failure suspicion scorer
//
//	client download <size>        start a verified download (e.g. 16MiB)
//	client echo <rounds> <size>   start an echo session (e.g. 500 1KiB)
//
//	at <time> crash <host>        HW/OS crash (primary|backup|witness|gateway)
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
// run. A statement takes effect where it stands in the script, so an `at`
// earlier than the virtual time already run is an error (equal is fine).
// Every action but rejoin is an experiment.Fault, validated by the testbed
// before it is armed; a script with no `at` at all must end failure-free.
// The vocabulary is the one the demos, Table 1 and the chaos campaigns
// inject through; its chaos-born kinds (loss, delay, txcut, corrupt,
// serialcorrupt, nicflap, serialflap, clockskew) have no verb here yet.
package scenario

import (
	"fmt"
	"strconv"
	"strings"
	"time"
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

// Statement is one parsed line.
type Statement struct {
	Line int
	Verb Verb

	// Option fields.
	OptionName  string
	OptionValue string

	// Client fields.
	ClientKind string // "download" | "echo"
	Size       int64  // bytes per download, or bytes per echo round
	Rounds     int    // echo only

	// At fields.
	When   time.Duration
	Action string  // crash|appcrash|nicfail|drop|serialcut|starve|reboot|rejoin
	Target string  // host name
	Arg    string  // appcrash mode, drop/starve duration
	Scale  float64 // starve factor

	// Run fields.
	RunFor time.Duration

	// Expect fields.
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
	case len(fields) == 2 && (fields[1] == "logger" || fields[1] == "witness" || fields[1] == "suspicion"):
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
		return errf(st.Line, "usage: option hb <dur> | option seed <n> | option logger | option witness | option suspicion | option maxdelayfin <dur>")
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
		st.ClientKind = "download"
		st.Size = size
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
		st.ClientKind = "echo"
		st.Rounds = rounds
		st.Size = size
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
	st.When = when
	st.Action = fields[2]
	rest := fields[3:]
	needsHost := func() error {
		if len(rest) < 1 {
			return errf(st.Line, "%s needs a host", st.Action)
		}
		switch rest[0] {
		case "primary", "backup", "witness", "gateway", "client":
			st.Target = rest[0]
			return nil
		default:
			return errf(st.Line, "unknown host %q", rest[0])
		}
	}
	switch st.Action {
	case "crash", "nicfail", "reboot":
		if err := needsHost(); err != nil {
			return err
		}
		if len(rest) != 1 {
			return errf(st.Line, "%s takes exactly one host", st.Action)
		}
	case "appcrash":
		if err := needsHost(); err != nil {
			return err
		}
		if len(rest) != 2 || (rest[1] != "silent" && rest[1] != "cleanup") {
			return errf(st.Line, "usage: appcrash <host> silent|cleanup")
		}
		st.Arg = rest[1]
	case "drop":
		if err := needsHost(); err != nil {
			return err
		}
		if len(rest) != 2 {
			return errf(st.Line, "usage: drop <host> <duration>")
		}
		if _, err := time.ParseDuration(rest[1]); err != nil {
			return errf(st.Line, "bad duration %q", rest[1])
		}
		st.Arg = rest[1]
	case "starve":
		if err := needsHost(); err != nil {
			return err
		}
		if len(rest) != 3 {
			return errf(st.Line, "usage: starve <host> <factor> <duration>")
		}
		scale, err := strconv.ParseFloat(rest[1], 64)
		if err != nil || scale < 1 {
			return errf(st.Line, "bad starve factor %q (want >= 1)", rest[1])
		}
		if _, err := time.ParseDuration(rest[2]); err != nil {
			return errf(st.Line, "bad duration %q", rest[2])
		}
		st.Scale = scale
		st.Arg = rest[2]
	case "serialcut", "rejoin":
		if len(rest) != 0 {
			return errf(st.Line, "%s takes no arguments", st.Action)
		}
	default:
		return errf(st.Line, "unknown action %q", st.Action)
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
