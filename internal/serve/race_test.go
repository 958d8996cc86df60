//go:build race

package serve

// raceEnabled reports whether the test binary runs under the race
// detector, whose runtime changes sync.Pool behaviour and with it the
// allocation counts AllocsPerRun observes.
const raceEnabled = true
