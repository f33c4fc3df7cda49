//go:build race

package cegis

// raceEnabled reports whether the race detector is compiled in: it
// allocates on its own, so allocation bounds do not hold under it.
const raceEnabled = true
