//go:build !race

package sample

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
