package codegen

import (
	"testing"
	"time"

	"hbc/gen"
	"hbc/internal/core"
	"hbc/internal/loopnest"
	"hbc/internal/pulse"
	"hbc/internal/sched"
	"hbc/internal/stats"
)

// TestMachineryOverheadDrop is the generated backend's headline gate: Fig.
// 7's first column (promotion disabled, an effectively infinite static
// chunk, polls that never fire) measured on both backends, where the
// generated machinery overhead must be at most half the interpreted one.
// Both backends are timed against the same baseline — the generated
// RunSerial driver, within noise of a hand-written loop — so the
// interpreted side carries its whole interpretive tax. All three are
// timed in this process, round-robin, so the ratio is same-machine
// comparable; the measured drop is about 10x, well outside run-to-run
// noise.
func TestMachineryOverheadDrop(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate; skipped under -short")
	}
	const rounds = 7
	opts := core.Options{
		DisablePromotion: true,
		Chunk:            core.ChunkPolicy{Kind: core.ChunkStatic, Size: 1 << 30},
	}
	for _, name := range goodKernels {
		gk, ok := gen.Lookup(name)
		if !ok {
			t.Fatalf("kernel %s not registered", name)
		}
		_, c := loadKernel(t, name)
		envG := gk.NewEnv()

		team := sched.NewTeam(1)
		t.Cleanup(team.Close) // registered first, so it runs after every x.Stop
		machinery := func(nest *loopnest.Nest, env interface{ Reset() }) func() {
			prog, err := core.Compile(nest, opts)
			if err != nil {
				t.Fatal(err)
			}
			x := core.NewExec(prog, team, pulse.NewNever(), 100*time.Microsecond, env)
			x.Start()
			t.Cleanup(x.Stop)
			return func() { x.Run() }
		}
		timers := []struct {
			reset func()
			run   func()
		}{
			{envG.Reset, func() { gk.RunSerial(envG) }},
			{c.Env.Reset, machinery(c.Nest, c.Env)},
			{envG.Reset, machinery(gk.Nest(envG), envG)},
		}
		ds := make([][]time.Duration, len(timers))
		for r := -1; r < rounds; r++ { // round -1 warms up
			for i, tm := range timers {
				tm.reset()
				t0 := time.Now()
				tm.run()
				if r >= 0 {
					ds[i] = append(ds[i], time.Since(t0))
				}
			}
		}

		serial := float64(stats.Median(ds[0]))
		pct := func(d []time.Duration) float64 { return 100 * (float64(stats.Median(d)) - serial) / serial }
		interp, generated := pct(ds[1]), pct(ds[2])
		t.Logf("%-9s serial %v  interpreted %+.0f%%  generated %+.0f%%",
			name, time.Duration(serial), interp, generated)
		if generated > 0.5*interp {
			t.Errorf("%s: generated machinery overhead %.0f%% exceeds half the interpreted %.0f%%",
				name, generated, interp)
		}
	}
}
