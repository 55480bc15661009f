package experiment

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"time"
)

// writeCSV writes header and then row(0..n-1).
func writeCSV(w io.Writer, header []string, n int, row func(i int) []string) error {
	cw := csv.NewWriter(w)
	err := cw.Write(header)
	for i := 0; i < n && err == nil; i++ {
		err = cw.Write(row(i))
	}
	if err != nil {
		return fmt.Errorf("experiment: csv: %w", err)
	}
	cw.Flush()
	return cw.Error()
}

// WriteDemo2CSV writes the Demo 2 series (heartbeat period, detection,
// failover) as CSV for plotting.
func WriteDemo2CSV(w io.Writer, results []FailoverResult) error {
	return writeCSV(w, []string{"hb_period_ms", "detection_ms", "failover_ms"}, len(results), func(i int) []string {
		r := results[i]
		return []string{ms(r.HBPeriod), ms(r.DetectionTime), ms(r.FailoverTime)}
	})
}

// WriteCapacityCSV writes the serial-capacity sweep as CSV.
func WriteCapacityCSV(w io.Writer, results []SerialCapacityResult) error {
	header := []string{"conns", "hb_bytes", "mean_interval_ms", "max_backlog_ms", "saturated"}
	return writeCSV(w, header, len(results), func(i int) []string {
		r := results[i]
		return []string{strconv.Itoa(r.Conns), strconv.Itoa(r.MessageBytes),
			ms(r.MeanInterval), ms(r.MaxQueueDelay), strconv.FormatBool(r.Saturated)}
	})
}

// WriteProgressCSV writes a client progress series (the pie chart) as CSV
// with times relative to start.
func WriteProgressCSV(w io.Writer, r FailoverResult) error {
	return writeCSV(w, []string{"elapsed_ms", "bytes", "fraction"}, len(r.Progress), func(i int) []string {
		s, frac := r.Progress[i], 0.0
		if r.TotalBytes > 0 {
			frac = float64(s.Bytes) / float64(r.TotalBytes)
		}
		return []string{ms(s.Time.Sub(r.StartAt)), strconv.FormatInt(s.Bytes, 10), strconv.FormatFloat(frac, 'f', 6, 64)}
	})
}

func ms(d time.Duration) string {
	return strconv.FormatFloat(float64(d)/float64(time.Millisecond), 'f', 3, 64)
}
