package sttcp

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/hb"
	"repro/internal/netem"
	"repro/internal/serial"
	"repro/internal/tcp"
)

// TestDesignParameterTable holds DESIGN.md §7 to the code: each row's
// "In code" cell names a value, and its "Value" cell must read what the code
// uses. Every value below needs its row, and every row a value here.
func TestDesignParameterTable(t *testing.T) {
	var c Config
	c.fillDefaults()
	want := map[string]string{
		"Config.HBPeriod":             dur(c.HBPeriod),
		"hb.Timeout":                  fmt.Sprintf("%d × period", hb.Timeout(time.Second)/time.Second),
		"Config.AppMaxLagBytes":       size(c.AppMaxLagBytes),
		"Config.AppMaxLagTime":        dur(c.AppMaxLagTime),
		"Config.MaxDelayFIN":          dur(c.MaxDelayFIN),
		"holdBufferSize":              size(holdBufferSize),
		"appLagByteHold":              dur(appLagByteHold),
		"nicLagGrace":                 dur(nicLagGrace),
		"nicLagBytes":                 size(nicLagBytes),
		"nicLagTime":                  dur(nicLagTime),
		"pingFailsForVerdict":         fmt.Sprintf("%d observations", pingFailsForVerdict),
		"asymHold":                    dur(asymHold),
		"respSLO":                     dur(respSLO),
		"respHold":                    dur(respHold),
		"serial.DefaultBitsPerSecond": fmt.Sprintf("%d bit/s", serial.DefaultBitsPerSecond),
		"hb.EncodedSize":              fmt.Sprintf("%d B/conn", hb.EncodedSize(1)-hb.EncodedSize(0)),
		"tcp.DefaultMSS":              fmt.Sprintf("%d B", tcp.DefaultMSS),
		"tcp.MinRTO":                  dur(tcp.MinRTO),
		"netem.DefaultLANConfig":      fmt.Sprintf("%d Mbit/s", netem.DefaultLANConfig().BitsPerSecond/1_000_000),
	}
	rows := designSection7(t)
	for code, value := range rows {
		w, ok := want[code]
		switch {
		case !ok:
			t.Errorf("DESIGN §7 lists %s, which this test does not check", code)
		case value != w:
			t.Errorf("DESIGN §7 says %s is %q; the code has %q", code, value, w)
		}
	}
	for code := range want {
		if _, ok := rows[code]; !ok {
			t.Errorf("DESIGN §7 has no row for %s", code)
		}
	}
}

// designSection7 reads DESIGN.md §7's table as "In code" → "Value".
func designSection7(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, sec, ok := strings.Cut(string(raw), "\n## 7. ")
	if !ok {
		t.Fatal("DESIGN.md has no §7")
	}
	sec, _, _ = strings.Cut(sec, "\n## ")
	rows := map[string]string{}
	for _, line := range strings.Split(sec, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) != 6 || !strings.HasPrefix(strings.TrimSpace(cells[3]), "`") {
			continue // not a table row, or the header and its rule
		}
		rows[strings.Trim(strings.TrimSpace(cells[3]), "`")] = strings.TrimSpace(cells[2])
	}
	if len(rows) == 0 {
		t.Fatal("DESIGN.md §7 has no parameter table")
	}
	return rows
}

// dur renders a duration as §7 does: whole seconds, else milliseconds.
func dur(d time.Duration) string {
	if d%time.Second == 0 {
		return fmt.Sprintf("%d s", d/time.Second)
	}
	return fmt.Sprintf("%d ms", d/time.Millisecond)
}

// size renders a byte count as §7 does, in its largest whole binary unit.
func size(n int64) string {
	switch {
	case n%(1<<20) == 0:
		return fmt.Sprintf("%d MiB", n>>20)
	case n%(1<<10) == 0:
		return fmt.Sprintf("%d KiB", n>>10)
	}
	return fmt.Sprintf("%d B", n)
}
