//go:build !race

package alvc_test

const raceEnabled = false
