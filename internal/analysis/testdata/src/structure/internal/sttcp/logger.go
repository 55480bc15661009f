// Package sttcp is a corpus stand-in for the ST-TCP node.
package sttcp

import "example.com/vet/structure/internal/tcp"

type loggedStream struct{ log *tcp.Window }

// The backup's logger is the one other window: allowed here.
func newLoggedStream(capacity int) *loggedStream { return &loggedStream{log: tcp.NewWindow(capacity)} }
