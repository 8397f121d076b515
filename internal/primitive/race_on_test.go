//go:build race

package primitive

// raceEnabled shrinks fixtures whose per-node reference builds take
// seconds, which the race detector stretches tenfold.
const raceEnabled = true
