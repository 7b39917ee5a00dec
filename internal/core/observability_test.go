package core

import (
	"math"
	"math/big"
	"runtime"
	"sync/atomic"
	"testing"

	"hbc/internal/pulse"
	"hbc/internal/sched"
	"hbc/internal/telemetry"
)

// TestChunksSampledDuringRun pins the Exec.Chunks bugfix: chunk slots are
// observed concurrently with the owning worker's rescale in onHeartbeat,
// which was a data race before the slots became atomic. Run under -race
// (the CI telemetry job does) this test fails on the old representation.
func TestChunksSampledDuringRun(t *testing.T) {
	data := make([]int64, 2_000_000)
	p := MustCompile(sumNest("sum"), Options{
		Chunk:       ChunkPolicy{Kind: ChunkAdaptive},
		TargetPolls: 4,
		WindowSize:  2, // short window: rescales happen constantly
	})
	team := sched.NewTeam(2)
	defer team.Close()
	x := NewExec(p, team, pulse.NewEveryN(8), DefaultHeartbeat, &sumEnv{data: data})
	x.Start()
	defer x.Stop()

	stop := make(chan struct{})
	sampled := make(chan struct{})
	var samples atomic.Int64
	go func() {
		defer close(sampled)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for w := 0; w < team.Size(); w++ {
				for _, c := range x.Chunks(w) {
					if c < 1 {
						t.Errorf("sampled chunk %d < 1", c)
						return
					}
				}
				samples.Add(1)
			}
			runtime.Gosched()
		}
	}()
	for i := 0; i < 5; i++ {
		x.Run()
	}
	close(stop)
	<-sampled
	if samples.Load() == 0 {
		t.Fatal("sampler never ran")
	}
}

// TestRescaleChunkOverflow pins the AC rescale bugfix: chunk * m used to be
// computed in int64 before the MaxChunk clamp, so large chunk and poll
// counts wrapped negative, the s < 1 branch reset the chunk to 1, and
// adaptation restarted from scratch. The rescale must clamp to MaxChunk
// instead.
func TestRescaleChunkOverflow(t *testing.T) {
	const max = int64(1 << 20)
	cases := []struct {
		name                 string
		chunk, m, target, in int64
		want                 int64
	}{
		{name: "plain growth", chunk: 100, m: 8, target: 4, want: 200},
		{name: "plain shrink", chunk: 100, m: 1, target: 4, want: 25},
		{name: "floor at one", chunk: 1, m: 1, target: 4, want: 1},
		{name: "no polls", chunk: 512, m: 0, target: 4, want: 1},
		{name: "clamp without overflow", chunk: 1 << 19, m: 64, target: 4, want: max},
		{name: "product overflows int64", chunk: 1 << 40, m: 1 << 30, target: 4, want: max},
		{name: "product exceeds 128 bits of quotient", chunk: math.MaxInt64, m: math.MaxInt64, target: 2, want: max},
		// The exact overflow boundary: the largest chunk whose product with
		// m still fits in int64, and the first one past it.
		{name: "below boundary", chunk: math.MaxInt64 / (1 << 30), m: 1 << 30, target: math.MaxInt64, want: math.MaxInt64 / (1 << 30) * (1 << 30) / math.MaxInt64},
		{name: "past boundary", chunk: math.MaxInt64/(1<<30) + 1, m: 1 << 30, target: 4, want: max},
	}
	for _, c := range cases {
		got := rescaleChunk(c.chunk, c.m, c.target, max)
		want := c.want
		if want < 1 {
			want = 1
		}
		if got != want {
			t.Errorf("%s: rescaleChunk(%d, %d, %d, %d) = %d, want %d",
				c.name, c.chunk, c.m, c.target, max, got, want)
		}
		// Cross-check against exact big-integer arithmetic.
		if c.m >= 1 {
			exact := new(big.Int).Mul(big.NewInt(c.chunk), big.NewInt(c.m))
			exact.Div(exact, big.NewInt(c.target))
			ref := exact.Int64()
			if !exact.IsInt64() || ref > max {
				ref = max
			}
			if ref < 1 {
				ref = 1
			}
			if got != ref {
				t.Errorf("%s: rescaleChunk = %d, big-int reference %d", c.name, got, ref)
			}
		}
	}
}

// TestOnHeartbeatOverflowKeepsMax drives the overflow through the window
// machinery and the adaptive policy's OnWindow: a huge seeded chunk and a
// poll-dense window must pin the chunk at MaxChunk, not collapse it to 1.
func TestOnHeartbeatOverflowKeepsMax(t *testing.T) {
	opts := (Options{Chunk: ChunkPolicy{Kind: ChunkAdaptive}, TargetPolls: 4, WindowSize: 1}).withDefaults()
	var a acWorker
	a.init(opts)
	pol := newPolicy(PolicyInfo{Workers: 1, Leaves: 1, Opts: opts}).(*adaptivePolicy)
	pol.slots.store(0, 0, math.MaxInt64/2)
	a.polls = 1 << 32 // poll count large enough to overflow the product
	m, leaf, done := a.onHeartbeat(0)
	if !done || leaf != 0 {
		t.Fatalf("onHeartbeat = (m=%d, leaf=%d, done=%v), want a completed window for leaf 0", m, leaf, done)
	}
	prev, next, retuned := pol.OnWindow(0, leaf, m)
	if !retuned {
		t.Fatal("expected a rescale at window end")
	}
	if prev != math.MaxInt64/2 {
		t.Fatalf("prev = %d, want seeded chunk", prev)
	}
	if next != opts.MaxChunk {
		t.Fatalf("chunk after overflow rescale = %d, want MaxChunk %d", next, opts.MaxChunk)
	}
	if got := pol.Chunk(0, 0); got != opts.MaxChunk {
		t.Fatalf("stored chunk = %d, want MaxChunk %d", got, opts.MaxChunk)
	}
}

// TestTracerRecordsRuntimeEvents checks the core wiring: with a tracer
// attached, a promoting run emits beat, promotion, and retune events on
// worker lanes.
func TestTracerRecordsRuntimeEvents(t *testing.T) {
	data := make([]int64, 500_000)
	p := MustCompile(sumNest("sum"), Options{
		Chunk:       ChunkPolicy{Kind: ChunkAdaptive},
		TargetPolls: 4,
		WindowSize:  2,
	})
	team := sched.NewTeam(2)
	defer team.Close()
	tr := telemetry.NewTracer(team.Size(), 0)
	x := NewExec(p, team, pulse.NewEveryN(8), DefaultHeartbeat, &sumEnv{data: data})
	x.SetTracer(tr)
	x.Start()
	defer x.Stop()
	x.Run()

	counts := tr.Snapshot().CountByKind()
	if counts[telemetry.KindBeat] == 0 {
		t.Fatal("no beat events recorded")
	}
	if got, want := int64(counts[telemetry.KindPromotion]), x.Stats().Promotions(); got != want {
		t.Fatalf("tracer recorded %d promotions, stats say %d", got, want)
	}
	if counts[telemetry.KindRetune] == 0 {
		t.Fatal("no retune events recorded")
	}
}

// TestPromotionEventsRecorded checks the payloads the tracer carries on a
// two-level nest: promotion split bounds are ordered, a leftover (A != B)
// always splits an ancestor of the polling loop, every promotion is traced
// exactly once, and retunes carry a row inside the root loop's bounds.
func TestPromotionEventsRecorded(t *testing.T) {
	env := newCSR(200)
	p := MustCompile(csrNest(), Options{Chunk: ChunkPolicy{Kind: ChunkAdaptive}, WindowSize: 2})
	team := sched.NewTeam(2)
	defer team.Close()
	tr := telemetry.NewTracer(team.Size(), 1<<16)
	x := NewExec(p, team, pulse.NewEveryN(4), DefaultHeartbeat, env)
	x.SetTracer(tr)
	x.Start()
	defer x.Stop()
	x.Run()
	int64sEqual(t, env.out, env.serial(), "traced spmv")

	snap := tr.Snapshot()
	if snap.Truncated() {
		t.Fatalf("ring wrapped (%d dropped); grow it", snap.Dropped())
	}
	var promos, leftovers, retunes int64
	for _, l := range snap.Lanes {
		for _, e := range l.Events {
			switch e.Kind {
			case telemetry.KindPromotion:
				promos++
				if e.D < e.C || e.E < e.D {
					t.Fatalf("bad split ranges [%d,%d|%d)", e.C, e.D, e.E)
				}
				if e.A != e.B {
					leftovers++
					atLevel, _ := telemetry.UnpackLoopID(e.A)
					splitLevel, _ := telemetry.UnpackLoopID(e.B)
					if splitLevel >= atLevel {
						t.Fatalf("leftover promotion splits level %d, not above polling level %d", splitLevel, atLevel)
					}
				}
			case telemetry.KindRetune:
				retunes++
				if e.E < 0 || e.E >= env.rows() {
					t.Fatalf("retune row %d outside the root loop [0,%d)", e.E, env.rows())
				}
			}
		}
	}
	if promos != x.Stats().Promotions() {
		t.Fatalf("traced promotions = %d, stats say %d", promos, x.Stats().Promotions())
	}
	if leftovers == 0 {
		t.Fatal("expected at least one leftover promotion")
	}
	if retunes == 0 {
		t.Fatal("no retune events recorded")
	}
}
