//go:build !race

package trace

// checkMessages is off outside the race build: a message is rendered only
// when its event is read.
const checkMessages = false
