//go:build !race

package faros_test

const raceEnabled = false
