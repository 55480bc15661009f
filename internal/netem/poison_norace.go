//go:build !race

package netem

// PoisonReleased is off outside the race build; see poison_race.go.
const PoisonReleased = false

// RecheckVerdicts is off outside the race build; see poison_race.go.
const RecheckVerdicts = false
