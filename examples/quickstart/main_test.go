package main

import "testing"

// TestQuickstart runs the example end to end: the download must survive
// the primary's crash.
func TestQuickstart(t *testing.T) {
	if err := run(); err != nil {
		t.Fatal(err)
	}
}
