//go:build race

package xpath_test

func init() { raceEnabled = true }
