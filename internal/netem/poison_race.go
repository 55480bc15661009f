//go:build race

package netem

// PoisonReleased makes the race build the debug build for borrowed-frame
// lifetimes: released frames, and in internal/tcp Segments, are overwritten.
const PoisonReleased = true
