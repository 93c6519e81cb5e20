//go:build race

package platform

const raceEnabled = true
