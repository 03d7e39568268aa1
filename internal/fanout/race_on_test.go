//go:build race

package fanout

const raceEnabled = true
