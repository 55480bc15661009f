//go:build !race

package netem

// PoisonReleased is off outside the race build; see poison_race.go.
const PoisonReleased = false

// recheckFCS is off outside the race build; see poison_race.go.
const recheckFCS = false
