//go:build !race

package orch

const raceEnabled = false
