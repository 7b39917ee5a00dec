//go:build race

package workloads

// raceEnabled reports whether the race detector instruments this test
// binary. Timing gates skip under it: instrumentation slows the schedules
// unevenly, so their ratios stop meaning anything.
const raceEnabled = true
