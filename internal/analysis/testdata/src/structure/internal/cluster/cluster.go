// Package cluster is a corpus stand-in for a host: a substrate package.
package cluster

import "example.com/vet/structure/internal/serial"

// Host mimics a machine and its fault mechanisms.
type Host struct{ serial *serial.Port }

func (h *Host) CrashHW()                { h.serial.SetDown(true) } // allowed: the substrate
func (h *Host) FailNIC()                {}
func (h *Host) SetCPUScale(r float64)   {}
func (h *Host) SetTimerScale(r float64) {}
