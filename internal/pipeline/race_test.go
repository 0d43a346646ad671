//go:build race

package pipeline

// raceEnabled reports a -race build, where sync.Pool drops a random
// share of Puts, so allocation counts that assume a primed pool do not
// hold.
const raceEnabled = true
