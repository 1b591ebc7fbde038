//go:build !race

package telemetry

const raceEnabled = false
