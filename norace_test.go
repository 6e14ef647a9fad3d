//go:build !race

package mega_test

const raceEnabled = false
