//go:build race

package serve

// raceEnabled reports a -race build, whose shadow memory and sync.Pool
// drops make live-heap deltas too noisy to bound.
const raceEnabled = true
