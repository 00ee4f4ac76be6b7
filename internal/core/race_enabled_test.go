//go:build race

package core

// raceEnabled reports that this test binary runs under the race detector,
// where sync.Pool drops items at random, so allocation counts that depend
// on pool reuse are nondeterministic.
const raceEnabled = true
