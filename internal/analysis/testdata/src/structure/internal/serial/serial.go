// Package serial is a corpus stand-in for the null-modem cable: a
// substrate package, so it implements fault mechanisms and may use them.
package serial

// Port mimics one end of the cable.
type Port struct{ down bool }

// SetDown mimics cutting (true) or raising (false) the cable.
func (p *Port) SetDown(down bool) { p.down = down }

// SetCorruptRate mimics the cable's corruption fault.
func (p *Port) SetCorruptRate(prob float64) {}
