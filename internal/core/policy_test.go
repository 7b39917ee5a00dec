package core

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"hbc/internal/loopnest"
	"hbc/internal/pulse"
	"hbc/internal/sched"
	"hbc/internal/telemetry"
)

// TestPolicyWorkerIsolation checks that Adaptive Chunking's per-worker
// state is independent: retuning worker 0's chunk must leave worker 1's
// chunk for the same leaf where it was.
func TestPolicyWorkerIsolation(t *testing.T) {
	c := newChunker(2, 1, Options{InitialChunk: 8}.withDefaults())
	for i := 0; i < 5; i++ {
		c.retune(0, 0, 16)
	}
	if got := c.next(0, 0); got == 8 {
		t.Fatalf("worker 0 chunk = %d after five coarse windows, want it grown", got)
	}
	if got := c.next(1, 0); got != 8 {
		t.Fatalf("worker 1 chunk = %d, want 8 (independent of worker 0)", got)
	}
}

// TestPolicyNextChunkAllocFree is the chunk fast-path allocation gate:
// chunker.next runs on every chunk refill a leaf makes and chunker.retune
// at the end of every poll window, so an allocation in either would charge
// every loop slice in the runtime. It holds for Adaptive Chunking
// and for a fixed size.
func TestPolicyNextChunkAllocFree(t *testing.T) {
	for _, size := range []int64{0, 16} {
		p := MustCompile(sumNest("sum"), Options{StaticChunk: size})
		team := sched.NewTeam(1)
		x := NewExec(p, team, pulse.NewNever(), DefaultHeartbeat, &sumEnv{})
		if n := testing.AllocsPerRun(100, func() { x.ch.next(0, 0) }); n != 0 {
			t.Errorf("StaticChunk %d: next allocates %v objects/op, want 0", size, n)
		}
		m := int64(2)
		if n := testing.AllocsPerRun(100, func() { m = 6 - m; x.ch.retune(0, 0, m) }); n != 0 {
			t.Errorf("StaticChunk %d: retune allocates %v objects/op, want 0", size, n)
		}
		team.Close()
	}
}

// TestRescaleChunkBoundaries is the table-driven boundary sweep for
// rescaleChunk: the empty-window m=0 case, a chunk pinned at MaxChunk, and
// the hi >= target 128-bit product edge.
func TestRescaleChunkBoundaries(t *testing.T) {
	const maxC = int64(1 << 20)
	cases := []struct {
		name                  string
		chunk, m, target, max int64
		want                  int64
	}{
		{"m=0 window resets to 1", 4096, 0, 4, maxC, 1},
		{"zero chunk resets to 1", 0, 8, 4, maxC, 1},
		{"at MaxChunk, m == target holds", maxC, 4, 4, maxC, maxC},
		{"at MaxChunk, m > target clamps", maxC, 8, 4, maxC, maxC},
		{"at MaxChunk, m < target shrinks", maxC, 2, 4, maxC, maxC / 2},
		{"hi == target edge clamps to max", math.MaxInt64, 1 << 62, 1 << 61, maxC, maxC},
		{"hi just below target still divides", 1 << 32, 1 << 17, 1 << 30, maxC, 1 << 19},
		{"quotient below 1 floors at 1", 16, 1, 64, maxC, 1},
		{"exact product", 100, 8, 4, maxC, 200},
	}
	for _, c := range cases {
		if got := rescaleChunk(c.chunk, c.m, c.target, c.max); got != c.want {
			t.Errorf("%s: rescaleChunk(%d, %d, %d, %d) = %d, want %d",
				c.name, c.chunk, c.m, c.target, c.max, got, c.want)
		}
	}
}

// TestLatchPollSpendsLastLeaf pins the attribution rule on a nest with two
// sibling leaves: a latch spends from, and attributes its poll to, the last
// child's leaf, while a non-last leaf whose chunk ends its invocation polls
// itself, since the latch does not spend from its budget. Every poll beats
// and promotion is off, so the traced beats are the exact poll sequence.
func TestLatchPollSpendsLastLeaf(t *testing.T) {
	// Static chunk 2; row r runs leaf a over 2 iterations, then leaf b over
	// bLen[r]. Row 0: a's chunk ends a's invocation and polls (leaf 0); b's
	// ends the row, so the latch polls for leaf 1. Row 1: a polls; b is
	// empty, but a already paid for the row, so the latch does not. Row 2:
	// a polls; b leaves one unit of its budget.
	bLen := []int64{2, 0, 1}
	mk := func(name string, n func(row int64) int64) *loopnest.Loop {
		return &loopnest.Loop{
			Name:   name,
			Bounds: func(_ any, idx []int64) (int64, int64) { return 0, n(idx[0]) },
			Body:   func(any, []int64, int64, int64, any) {},
		}
	}
	nest := &loopnest.Nest{Name: "siblings", Root: &loopnest.Loop{
		Name:   "row",
		Bounds: func(any, []int64) (int64, int64) { return 0, int64(len(bLen)) },
		Children: []*loopnest.Loop{
			mk("a", func(int64) int64 { return 2 }),
			mk("b", func(r int64) int64 { return bLen[r] }),
		},
	}}
	p := MustCompile(nest, Options{StaticChunk: 2, DisablePromotion: true})
	team := sched.NewTeam(1)
	defer team.Close()
	tr := telemetry.NewTracer(1, 1<<10)
	x := NewExec(p, team, pulse.NewAlways(), DefaultHeartbeat, nil)
	x.SetTracer(tr)
	x.Start()
	defer x.Stop()
	x.Run()
	var got []int64
	for _, e := range tr.Snapshot().Lanes[0].Events {
		if e.Kind == telemetry.KindBeat {
			got = append(got, e.B)
		}
	}
	if want := []int64{0, 1, 0, 0}; !slices.Equal(got, want) {
		t.Fatalf("beats spent from leaves %v, want %v", got, want)
	}
}

// latchEnv is a two-level nest whose inner leaf has a fixed size, so the
// poll sequence (leaf poll, latch poll, leaf poll, ...) is deterministic.
type latchEnv struct {
	rows, inner int64
	out         []int64
}

func latchNest() *loopnest.Nest {
	leaf := &loopnest.Loop{
		Name: "inner",
		Bounds: func(env any, _ []int64) (int64, int64) {
			return 0, env.(*latchEnv).inner
		},
		Body: func(env any, idx []int64, lo, hi int64, _ any) {
			e := env.(*latchEnv)
			for i := lo; i < hi; i++ {
				e.out[idx[0]]++
			}
		},
	}
	root := &loopnest.Loop{
		Name:     "outer",
		Bounds:   func(env any, _ []int64) (int64, int64) { return 0, env.(*latchEnv).rows },
		Children: []*loopnest.Loop{leaf},
	}
	return &loopnest.Nest{Name: "latchy", Root: root}
}

// TestLatchClosedWindowsStillAdapt checks that windows closed at interior
// latches retune the chunk of the leaf the latch spends from. Inner size ==
// initial chunk == 8, so every chunk ends its row and leaves its poll to
// the row's latch: while the chunk is 8, every poll is a latch poll. An
// every-2nd-poll pulse makes each one-beat window's minimum 2, half the
// target 4, so each window halves the chunk: 8 → 4 → 2 → 1, where it stays
// (rescale floors at 1). The first window is closed at a latch alone; a
// runtime that dropped or misattributed latch windows leaves the chunk at
// 8 or retunes some other leaf.
func TestLatchClosedWindowsStillAdapt(t *testing.T) {
	env := &latchEnv{rows: 4000, inner: 8, out: make([]int64, 4000)}
	p := MustCompile(latchNest(), Options{
		TargetPolls:      4,
		WindowSize:       1,
		InitialChunk:     8,
		DisablePromotion: true, // keep the poll sequence exactly periodic
	})
	team := sched.NewTeam(1)
	defer team.Close()
	tr := telemetry.NewTracer(1, 1<<16)
	x := NewExec(p, team, pulse.NewEveryN(2), DefaultHeartbeat, env)
	x.SetTracer(tr)
	x.Start()
	defer x.Stop()
	x.Run()
	var chunks []int64
	for _, e := range tr.Snapshot().Lanes[0].Events {
		if e.Kind != telemetry.KindRetune {
			continue
		}
		if e.A != 0 || e.D != 2 {
			t.Fatalf("retune of leaf %d from window minimum %d, want leaf 0 and minimum 2", e.A, e.D)
		}
		if len(chunks) == 0 {
			chunks = append(chunks, e.C)
		}
		chunks = append(chunks, e.B)
	}
	if len(chunks) < 4 || !slices.Equal(chunks[:4], []int64{8, 4, 2, 1}) {
		t.Fatalf("chunk sequence %v, want it to start 8, 4, 2, 1", chunks)
	}
	if got := x.Chunks(0)[0]; got != 1 {
		t.Fatalf("final chunk = %d, want 1", got)
	}
	for i, v := range env.out {
		if v != env.inner {
			t.Fatalf("out[%d] = %d, want %d", i, v, env.inner)
		}
	}
}

// TestCompileRejectsBadChunkConfigs pins the Compile-time validation of
// StaticChunk: a negative size is an error rather than a silent fall back
// to Adaptive Chunking, and 0 selects Adaptive Chunking.
func TestCompileRejectsBadChunkConfigs(t *testing.T) {
	_, err := Compile(sumNest("sum"), Options{StaticChunk: -8})
	if err == nil || !strings.Contains(err.Error(), "negative") {
		t.Fatalf("Compile(StaticChunk: -8) error = %v, want a negative-size error", err)
	}
	p, err := Compile(sumNest("sum"), Options{StaticChunk: 0, InitialChunk: 5})
	if err != nil {
		t.Fatalf("zero static size rejected: %v", err)
	}
	c := newChunker(1, 1, p.Options())
	if got := c.next(0, 0); got != 5 {
		t.Fatalf("zero static size dealt %d, want Adaptive Chunking's initial chunk 5", got)
	}
	if _, _, retuned := c.retune(0, 0, 8); !retuned {
		t.Fatal("zero static size did not retune: want Adaptive Chunking")
	}
}

// TestSchedulesDifferentialSpmv runs the CSR nest under Adaptive Chunking,
// a poll at every iteration and a fixed chunk of 16, checking bit-identical
// output rows against the serial oracle (row results are sums of the same
// values; the rows themselves are not reassociated across chunk sizes).
func TestSchedulesDifferentialSpmv(t *testing.T) {
	for _, size := range []int64{0, 1, 16} {
		env := newCSR(600)
		p := MustCompile(csrNest(), Options{StaticChunk: size})
		team := sched.NewTeam(4)
		x := NewExec(p, team, pulse.NewEveryN(32), DefaultHeartbeat, env)
		x.Start()
		for i := 0; i < 3; i++ {
			x.Run()
		}
		int64sEqual(t, env.out, env.serial(), fmt.Sprintf("StaticChunk %d", size))
		x.Stop()
		team.Close()
	}
}
