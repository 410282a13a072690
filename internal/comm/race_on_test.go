//go:build race

package comm

// raceEnabled reports that the race detector is active; its
// instrumentation allocates, so the zero-allocation assertions are
// skipped under -race (the numerics they guard are covered elsewhere).
const raceEnabled = true
