//go:build race

package trace

// checkMessages makes the race build the proof that rendering a message
// when it is read is rendering it when it was emitted: EmitIn renders each
// message at once too, and every read panics if it renders another.
const checkMessages = true
