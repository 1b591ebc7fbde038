//go:build race

package cluster

// raceEnabled: under the race detector sync.Pool drops a share of what
// it is handed, so allocation counts of pooled code are not exact.
const raceEnabled = true
