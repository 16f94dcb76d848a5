//go:build race

package classify

// Under the race detector sync.Pool drops a random share of the items put
// back, so pooled scratch is reallocated and allocation counts are noise.
func init() { raceEnabled = true }
