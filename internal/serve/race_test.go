//go:build race

package serve

// raceEnabled reports a -race build, where sync.Pool drops a random share of
// the items put back, so allocations that go through a pool are noise.
const raceEnabled = true
