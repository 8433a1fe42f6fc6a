//go:build race

package faros_test

// raceEnabled reports a -race build, where sync.Pool deliberately drops
// items and allocation bounds do not hold.
const raceEnabled = true
