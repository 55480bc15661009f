// Package netem is a corpus stand-in for the emulated network: a
// substrate package, so its own use of a fault method is the mechanism,
// not a second place performing faults.
package netem

// Link mimics a duplex link and its fault mechanisms.
type Link struct{}

func (l *Link) DropFromBFor(d int)          {}
func (l *Link) SetLossRate(p float64)       {}
func (l *Link) SetExtraDelay(d int)         {}
func (l *Link) SetCutFromA(cut bool)        {}
func (l *Link) SetCutFromB(cut bool)        {}
func (l *Link) SetCorruptRate(p float64)    {}
func (l *Link) Flap(down bool)              { l.SetCutFromA(down); l.SetCutFromB(down) } // allowed: the substrate
func (l *Link) Transmit(frame []byte) error { return nil }

// Window mimics a buffer outside tcp and sttcp: one-window does not read
// this package.
type Window struct{ buf []byte }

func (w *Window) shift(n int) { copy(w.buf, w.buf[n:]) }
