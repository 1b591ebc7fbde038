//go:build !race

package topology

const raceEnabled = false
