//go:build race

package httpfront

// raceEnabled reports a -race build, where sync.Pool drops a quarter of
// what is Put and B/op gates on pooled code measure the detector.
const raceEnabled = true
