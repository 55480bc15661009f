package sttcp

import (
	"errors"
	"repro/internal/tcp"
)

// Hold-buffer errors.
var (
	ErrHoldOverflow = errors.New("sttcp: hold buffer overflow")
	ErrHoldGap      = errors.New("sttcp: hold buffer gap")
)

// holdAppend adds client bytes at stream offset off to a hold buffer, all or
// nothing: a gap is refused, and so is what does not fit (Table 1 row 5).
func holdAppend(hold *tcp.Window, off int64, p []byte) error {
	if off != hold.End() {
		return ErrHoldGap
	}
	if len(p) > hold.Free() {
		return ErrHoldOverflow
	}
	hold.Write(p)
	return nil
}
