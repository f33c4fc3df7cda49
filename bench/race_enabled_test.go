//go:build race

package main

// raceEnabled reports whether the race detector is compiled in; the
// long workloads skip under it.
const raceEnabled = true
