//go:build race

package netem

// PoisonReleased makes the race build the debug build for borrowed-frame
// lifetimes: released frames, and in internal/tcp Segments, are overwritten.
const PoisonReleased = true

// RecheckVerdicts makes every check an intact verdict lets a switch port
// or a NIC skip run anyway, in the race build, and panic if the bytes fail
// it: the FCS at both, and at the NIC the IP, UDP and TCP checksums, a
// datagram's non-zero. So that they can be checked, the race build also
// seals every frame as it is sent.
const RecheckVerdicts = true
