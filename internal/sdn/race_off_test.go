//go:build !race

package sdn

const raceEnabled = false
