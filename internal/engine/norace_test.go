//go:build !race

package engine

const raceDetector = false
