//go:build race

package engine

// raceDetector reports whether the tests were built with -race.
const raceDetector = true
