package core

import (
	"testing"

	"hbc/internal/pulse"
	"hbc/internal/sched"
)

// TestInitialChunkSeedsAdaptiveState checks that Options.InitialChunk (the
// static cost estimate from the analysis facts) seeds every worker's
// per-leaf starting chunk instead of the paper's default of 1.
func TestInitialChunkSeedsAdaptiveState(t *testing.T) {
	data := make([]int64, 1000)
	p := MustCompile(sumNest("sum"), Options{
		InitialChunk: 64,
	})
	team := sched.NewTeam(2)
	defer team.Close()
	x := NewExec(p, team, pulse.NewNever(), DefaultHeartbeat, &sumEnv{data: data})
	x.Start()
	defer x.Stop()
	for w := 0; w < 2; w++ {
		for leaf, got := range x.Chunks(w) {
			if got != 64 {
				t.Fatalf("worker %d leaf %d starting chunk = %d, want 64", w, leaf, got)
			}
		}
	}
	x.Run()
}

// TestInitialChunkClamped pins the defaulting: zero/negative seeds become
// the paper's 1, and seeds above MaxChunk clamp to it.
func TestInitialChunkClamped(t *testing.T) {
	cases := []struct {
		name string
		in   int64
		want int64
	}{
		{"zero-defaults-to-one", 0, 1},
		{"negative-defaults-to-one", -5, 1},
		{"above-max-clamps", 1 << 30, 1 << 20},
		{"in-range-passes", 512, 512},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := Options{InitialChunk: tc.in}.withDefaults()
			if o.InitialChunk != tc.want {
				t.Fatalf("withDefaults(InitialChunk=%d) = %d, want %d", tc.in, o.InitialChunk, tc.want)
			}
		})
	}
}
