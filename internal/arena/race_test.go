//go:build race

package arena_test

// raceEnabled reports a -race build, whose sync.Pool drops a quarter of
// the values put back, so allocation counts do not hold there.
const raceEnabled = true
