package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/experiment"
	"repro/internal/explore"
	"repro/internal/sttcp"
	"repro/internal/tcp"
)

// settable lists the config structs a caller fills and how many settable
// values each has. Like a flag, a settable value is a configuration the
// tests must cover, so a count should only fall; `make settings` prints
// them (CI runs it beside `make flags`).
var settable = []struct {
	name  string
	value any
	count int
}{
	{"sttcp.Config", sttcp.Config{}, 12},
	{"experiment.Options", experiment.Options{}, 9},
	{"experiment.Params", experiment.Params{}, 7},
	{"experiment.Plan", experiment.Plan{}, 19},
	{"explore.Config", explore.Config{}, 10},
	{"tcp.Options", tcp.Options{}, 1},
}

// TestSettableFields pins each config struct's count of settable values,
// so one added or removed is a deliberate change to this table and to
// ROADMAP's instruments line.
func TestSettableFields(t *testing.T) {
	total := 0
	for _, s := range settable {
		n := settableFields(reflect.TypeOf(s.value))
		total += n
		t.Logf("%4d  %s", n, s.name)
		if n != s.count {
			t.Errorf("%s has %d settable values, this table says %d", s.name, n, s.count)
		}
	}
	t.Logf("%4d  total", total)
}

// settableFields counts a struct's exported fields, a nested config struct
// (a struct type of this module, embedded or not) by its own fields.
func settableFields(typ reflect.Type) int {
	n := 0
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); {
		case !f.IsExported():
		case f.Type.Kind() == reflect.Struct && strings.HasPrefix(f.Type.PkgPath(), "repro/"):
			n += settableFields(f.Type)
		default:
			n++
		}
	}
	return n
}

// flagRegistrations is how many command-line flags the one binary registers,
// counted as `make flags` prints it: every registration call under cmd/, the
// ones shared through cmd/internal/cliflags once. Like a settable value, a
// flag is a configuration the tests must cover, so the count should only
// fall.
const flagRegistrations = 26

// flagCall matches one registration call on a FlagSet named fs.
var flagCall = regexp.MustCompile(`fs\.(Bool|Int|Int64|Uint|String|Duration|Float64|Func|Var|Text)(Var)?\(`)

// TestFlagRegistrations pins flagRegistrations, so a flag added or removed is
// a deliberate change to it and to ROADMAP's instruments line.
func TestFlagRegistrations(t *testing.T) {
	n := 0
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		n += len(flagCall.FindAll(src, -1))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d", n)
	if n != flagRegistrations {
		t.Errorf("cmd/ registers %d flags, flagRegistrations says %d", n, flagRegistrations)
	}
}
