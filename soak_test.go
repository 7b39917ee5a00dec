package hbc

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
)

// TestSoakRandomizedNests hammers the whole stack for a couple of seconds
// with randomized nest shapes, worker counts and heartbeat rates on the
// default heartbeat source, checking exact iteration coverage on every run.
// Skipped in -short mode.
func TestSoakRandomizedNests(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	rng := rand.New(rand.NewSource(42))
	deadline := time.Now().Add(2 * time.Second)
	runs := 0
	for time.Now().Before(deadline) {
		runs++
		workers := rng.Intn(4) + 1
		period := time.Duration(rng.Intn(180)+20) * time.Microsecond
		outer := int64(rng.Intn(300) + 1)
		inner := int64(rng.Intn(80) + 1)
		cfg := Config{}
		switch rng.Intn(4) {
		case 0:
			cfg.StaticChunk = int64(rng.Intn(30) + 1)
		case 1:
			cfg.StaticChunk = 1
		case 2:
			cfg.TPAL = true
			cfg.StaticChunk = 8
		}
		cfg.Policy = PromotionPolicy(rng.Intn(3))

		team := NewTeam(Workers(workers), Heartbeat(period))
		var covered atomic.Int64
		nest := &Nest{
			Name: "soak",
			Root: &Loop{
				Name:   "outer",
				Bounds: RangeN(outer),
				Children: []*Loop{{
					Name: "inner",
					Bounds: func(_ any, idx []int64) (int64, int64) {
						// Irregular: extent varies with the outer index.
						return 0, (idx[0] % inner) + 1
					},
					Body: func(_ any, _ []int64, lo, hi int64, _ any) {
						covered.Add(hi - lo)
					},
				}},
			},
		}
		prog := MustCompile(nest, cfg)
		r := team.Load(prog, nil)
		r.Run()
		r.Close()
		team.Close()

		var want int64
		for i := int64(0); i < outer; i++ {
			want += (i % inner) + 1
		}
		if got := covered.Load(); got != want {
			t.Fatalf("run %d (workers=%d period=%v cfg=%+v): covered %d, want %d",
				runs, workers, period, cfg, got, want)
		}
	}
	t.Logf("soak: %d randomized runs", runs)
}
