package chaos

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"hbc/internal/core"
	"hbc/internal/loopnest"
	"hbc/internal/pulse"
	"hbc/internal/sched"
)

// chaosSeed reseeds the soak; CI runs a small seed matrix and every failure
// message carries the seed, so a red run reproduces with
// `go test -race ./internal/chaos/ -chaos.seed=N`.
var chaosSeed = flag.Int64("chaos.seed", 1, "seed for the chaos soak test")

// TestChaosSoak hammers the runtime for a couple of seconds with randomized
// nests, worker counts, heartbeat rates, and faults — injected panics,
// context deadlines, and degraded heartbeat delivery (drops, permanent
// stalls, frozen workers) — checking on every run that the failure
// semantics hold: typed errors, exact coverage on success, no lost abort,
// and no goroutine leak. Skipped in -short mode.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	seed := *chaosSeed
	rng := rand.New(rand.NewSource(seed))
	baseline := runtime.NumGoroutine()
	deadline := time.Now().Add(2 * time.Second)
	runs := 0
	for time.Now().Before(deadline) {
		runs++
		workers := rng.Intn(4) + 1
		period := time.Duration(rng.Intn(180)+20) * time.Microsecond
		outer := int64(rng.Intn(200) + 1)
		inner := int64(rng.Intn(60) + 1)
		opts := core.Options{}
		switch rng.Intn(4) {
		case 0:
			opts.Chunk = core.ChunkPolicy{Kind: core.ChunkStatic, Size: int64(rng.Intn(20) + 1)}
		case 1:
			opts.Chunk = core.ChunkPolicy{Kind: core.ChunkNone}
		case 2:
			opts.Mode = core.ModeTPAL
			opts.Chunk = core.ChunkPolicy{Kind: core.ChunkStatic, Size: 8}
		}

		var want int64
		for i := int64(0); i < outer; i++ {
			want += (i % inner) + 1
		}
		fault := rng.Intn(4)
		tag := func(detail string) string {
			return fmt.Sprintf("[seed=%d run=%d fault=%d workers=%d period=%v outer=%d inner=%d opts=%+v] %s",
				seed, runs, fault, workers, period, outer, inner, opts, detail)
		}

		var covered atomic.Int64
		nest := &loopnest.Nest{
			Name: "chaos-soak",
			Root: &loopnest.Loop{
				Name:   "outer",
				Bounds: func(any, []int64) (int64, int64) { return 0, outer },
				Children: []*loopnest.Loop{{
					Name: "inner",
					Bounds: func(_ any, idx []int64) (int64, int64) {
						return 0, (idx[0] % inner) + 1
					},
					Body: func(_ any, _ []int64, lo, hi int64, _ any) {
						covered.Add(hi - lo)
					},
				}},
			},
		}

		// Pick the fault for this run.
		var plan *PanicPlan
		ctx := context.Background()
		var cancel context.CancelFunc
		var src pulse.Source = pulse.NewEveryN(int64(rng.Intn(6) + 1))
		switch fault {
		case 1: // injected panic at a random iteration
			plan = &PanicPlan{AfterIterations: rng.Int63n(want) + 1}
			nest = plan.WrapNest(nest)
		case 2: // deadline mid-run
			ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(500)+20)*time.Microsecond)
		case 3: // degraded heartbeat delivery; the run itself must succeed
			sp := SourcePlan{Seed: rng.Int63(), DropProb: rng.Float64() * 0.9}
			if rng.Intn(2) == 0 {
				sp.FreezeFor = time.Duration(rng.Intn(300)) * time.Microsecond
				sp.FreezeWorker = rng.Intn(workers)
				sp.FreezeAtPoll = int64(rng.Intn(50) + 1)
			}
			if rng.Intn(2) == 0 {
				src = WrapSource(src, SourcePlan{
					Seed:       sp.Seed,
					StallAfter: time.Duration(rng.Intn(300)+50) * time.Microsecond,
				})
			} else {
				src = WrapSource(src, sp)
			}
		}

		prog, err := core.Compile(nest, opts)
		if err != nil {
			t.Fatal(tag(err.Error()))
		}
		team := sched.NewTeam(workers)
		src.Attach(workers, period)
		x := core.NewExecShared(prog, team, src, period, nil)
		got, err := x.RunCtx(ctx)
		if cancel != nil {
			cancel()
		}
		src.Detach()
		team.Close()

		switch fault {
		case 1:
			var pe *core.PanicError
			if !errors.As(err, &pe) {
				t.Fatal(tag(fmt.Sprintf("injected panic surfaced as %T (%v), want *core.PanicError", err, err)))
			}
			if _, ok := pe.Value.(Fault); !ok {
				t.Fatal(tag(fmt.Sprintf("PanicError.Value is %T, want chaos.Fault", pe.Value)))
			}
			if covered.Load() >= want {
				t.Fatal(tag(fmt.Sprintf("covered %d of %d despite a panic before iteration %d",
					covered.Load(), want, plan.AfterIterations)))
			}
		case 2:
			if err != nil && !errors.Is(err, context.DeadlineExceeded) {
				t.Fatal(tag(fmt.Sprintf("deadline run failed with %v", err)))
			}
			if err != nil && covered.Load() > want {
				t.Fatal(tag(fmt.Sprintf("covered %d, want <= %d", covered.Load(), want)))
			}
			if err == nil && covered.Load() != want {
				t.Fatal(tag(fmt.Sprintf("clean finish covered %d, want %d", covered.Load(), want)))
			}
		default: // no fault, or delivery faults only: the run must be exact
			if err != nil {
				t.Fatal(tag(fmt.Sprintf("unexpected error %v", err)))
			}
			if covered.Load() != want {
				t.Fatal(tag(fmt.Sprintf("covered %d, want %d", covered.Load(), want)))
			}
			_ = got
		}
	}
	waitForGoroutines(t, baseline)
	t.Logf("chaos soak: %d randomized runs at seed %d", runs, seed)
}
