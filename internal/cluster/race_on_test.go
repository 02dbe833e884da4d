//go:build race

package cluster

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop items at random, so allocation ceilings on pooled paths hold only
// without it.
const raceEnabled = true
