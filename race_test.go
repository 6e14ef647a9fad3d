//go:build race

package mega_test

// raceEnabled reports a -race build, where an absolute B/op ceiling
// measures the detector's allocations on top of the code's.
const raceEnabled = true
