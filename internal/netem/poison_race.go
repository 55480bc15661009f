//go:build race

package netem

// PoisonReleased makes the race build the debug build for borrowed-frame
// lifetimes: released frames, and in internal/tcp Segments, are overwritten.
const PoisonReleased = true

// recheckFCS makes a NIC that reuses the switch's FCS verdict compute the
// CRC-32 anyway, in the race build, and panic if the two disagree.
const recheckFCS = true
