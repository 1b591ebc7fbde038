//go:build !race

package resilience

const raceEnabled = false
