//go:build race

package sim_test

// raceEnabled reports a -race build, where sync.Pool drops items at random
// and allocation counts of pooled paths mean nothing.
const raceEnabled = true
