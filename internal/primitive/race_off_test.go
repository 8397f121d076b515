//go:build !race

package primitive

const raceEnabled = false
