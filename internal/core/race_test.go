//go:build race

package core

// raceEnabled reports a -race build, where sync.Pool drops a random share of
// the items put back, so allocation counts that go through a pool are noise.
const raceEnabled = true
