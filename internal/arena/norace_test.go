//go:build !race

package arena_test

const raceEnabled = false
