package core

import (
	"math"
	"strings"
	"testing"
	"time"

	"hbc/internal/loopnest"
	"hbc/internal/pulse"
	"hbc/internal/sched"
)

func mkPolicy(t *testing.T, o Options, workers, leaves int) SchedPolicy {
	t.Helper()
	return newPolicy(PolicyInfo{Workers: workers, Leaves: leaves, Opts: o})
}

// TestGuidedSeries pins guided self-scheduling's exponential decay:
// each deal takes ceil(remaining/P), floored at MinChunk.
func TestGuidedSeries(t *testing.T) {
	p := mkPolicy(t, Options{Chunk: ChunkPolicy{Kind: ChunkGuided, MinChunk: 4}}, 4, 1)
	rem := int64(1000)
	want := []int64{250, 188, 141, 106, 79, 59, 45}
	for i, w := range want {
		got := p.NextChunk(0, 0, rem)
		if got != w {
			t.Fatalf("deal %d: guided chunk = %d, want %d (remaining %d)", i, got, w, rem)
		}
		if obs := p.Chunk(0, 0); obs != got {
			t.Fatalf("deal %d: observable chunk %d != dealt %d", i, obs, got)
		}
		rem -= got
	}
	// Decay floors at MinChunk.
	if got := p.NextChunk(0, 0, 3); got != 4 {
		t.Fatalf("guided floor = %d, want MinChunk 4", got)
	}
}

// TestFactoringSeries pins factoring's batch structure: P deals of
// ceil(remaining/2P) before replanning.
func TestFactoringSeries(t *testing.T) {
	p := mkPolicy(t, Options{Chunk: ChunkPolicy{Kind: ChunkFactoring}}, 2, 1)
	rem := int64(100)
	// Batch 1: ceil(100/4) = 25, dealt twice. Batch 2 plans from what the
	// series itself left: 100-50 = 50 -> ceil(50/4) = 13, twice. Then 24
	// left -> 6, 6; then 12 -> 3, 3.
	want := []int64{25, 25, 13, 13, 6, 6, 3, 3}
	for i, w := range want {
		got := p.NextChunk(0, 0, rem)
		if got != w {
			t.Fatalf("deal %d: factoring chunk = %d, want %d (remaining %d)", i, got, w, rem)
		}
		rem -= got
	}
	// A shrunken remaining estimate (new smaller invocation) replans the
	// batch rather than dealing a stale coarse chunk.
	if got := p.NextChunk(0, 0, 4); got != 1 {
		t.Fatalf("factoring after shrink = %d, want replanned 1", got)
	}
}

// TestWeightedFactoringSeries pins the per-worker weight scaling: worker
// weights {2, 1} mean-normalize to 4/3 and 2/3 of the factoring deal.
func TestWeightedFactoringSeries(t *testing.T) {
	p := mkPolicy(t, Options{Chunk: ChunkPolicy{Kind: ChunkWeighted, Weights: []float64{2, 1}}}, 2, 1)
	// Batch size for remaining 120, P=2: ceil(120/4) = 30.
	// w0: 30 * (2/1.5) = 40; w1: 30 * (1/1.5) = 20 (fixed-point, truncated).
	if got := p.NextChunk(0, 0, 120); got != 39 && got != 40 {
		t.Fatalf("weighted w0 chunk = %d, want ~40", got)
	}
	if got := p.NextChunk(1, 0, 120); got != 19 && got != 20 {
		t.Fatalf("weighted w1 chunk = %d, want ~20", got)
	}
	if p.Name() != "weighted" {
		t.Fatalf("Name = %q, want weighted", p.Name())
	}
}

// TestTrapezoidSeries pins TSS's linear descent: from f = ceil(N/2P) to
// MinChunk by a constant delta.
func TestTrapezoidSeries(t *testing.T) {
	p := mkPolicy(t, Options{Chunk: ChunkPolicy{Kind: ChunkTrapezoid}}, 2, 1)
	rem := int64(100)
	// f = ceil(100/4) = 25, l = 1, steps = ceil(200/26) = 8,
	// delta = (25-1)/7 = 3: series 25, 22, 19, 16, ...
	want := []int64{25, 22, 19, 16, 13, 10, 7, 4, 1, 1}
	for i, w := range want {
		got := p.NextChunk(0, 0, rem)
		if got != w {
			t.Fatalf("deal %d: trapezoid chunk = %d, want %d", i, got, w)
		}
		if rem -= got; rem < 0 {
			rem = 0
		}
	}
	// A larger invocation replans the descent upward.
	if got := p.NextChunk(0, 0, 1000); got != 250 {
		t.Fatalf("trapezoid replan = %d, want 250", got)
	}
}

// TestPolicyWorkerIsolation checks per-worker schedule state is
// independent: worker 1's descent must not be advanced by worker 0.
func TestPolicyWorkerIsolation(t *testing.T) {
	for _, kind := range []ChunkKind{ChunkGuided, ChunkFactoring, ChunkTrapezoid} {
		p := mkPolicy(t, Options{Chunk: ChunkPolicy{Kind: kind}}, 2, 1)
		first := p.NextChunk(0, 0, 1000)
		for i := 0; i < 5; i++ {
			p.NextChunk(0, 0, 500)
		}
		if got := p.NextChunk(1, 0, 1000); got != first {
			t.Errorf("%v: worker 1 first deal = %d, want %d (independent of worker 0)", kind, got, first)
		}
	}
}

// TestPolicyNextChunkAllocFree is the policy fast-path allocation gate:
// NextChunk runs on every chunk refill a leaf makes, so an allocation there
// would charge every loop slice in the runtime. It holds for every
// schedule, auto included, which delegates through its atomically
// published active candidate.
func TestPolicyNextChunkAllocFree(t *testing.T) {
	for _, name := range ScheduleNames() {
		kind, err := ParseChunkKind(name)
		if err != nil {
			t.Fatal(err)
		}
		p := mkPolicy(t, Options{Chunk: ChunkPolicy{Kind: kind}}, 1, 1)
		if n := testing.AllocsPerRun(100, func() { p.NextChunk(0, 0, 1<<20) }); n != 0 {
			t.Errorf("%s: NextChunk allocates %v objects/op, want 0", name, n)
		}
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

// TestLatchWindowAttributedToLastLeaf pins the onHeartbeat bugfix at the
// unit level: a window whose closing beat lands on an interior latch
// (ord < 0) is attributed to the most recently polling leaf instead of
// being discarded.
func TestLatchWindowAttributedToLastLeaf(t *testing.T) {
	opts := (Options{WindowSize: 2}).withDefaults()
	var a acWorker
	a.init(opts)

	// Before any leaf has polled, a latch-closed window has no leaf to
	// describe: it is dropped (leaf -1), the only case where data may go.
	a.notePoll(-1)
	if _, _, done := a.onHeartbeat(-1); done {
		t.Fatal("window done after 1 of 2 beats")
	}
	a.notePoll(-1)
	if m, leaf, done := a.onHeartbeat(-1); !done || leaf != -1 || m != 1 {
		t.Fatalf("pre-leaf window = (m=%d, leaf=%d, done=%v), want (1, -1, true)", m, leaf, done)
	}

	// Leaf 2 polls; the window then completes on a latch-detected beat.
	// The old runtime returned retuned=false here and threw the window
	// away — adaptation stalled whenever beats landed on latches.
	for i := 0; i < 3; i++ {
		a.notePoll(2)
	}
	a.notePoll(-1)    // the beat-detecting latch poll closes interval 1: 4 polls
	a.onHeartbeat(-1) // window half full
	for i := 0; i < 4; i++ {
		a.notePoll(2)
	}
	a.notePoll(-1) // interval 2: 5 polls
	m, leaf, done := a.onHeartbeat(-1)
	if !done {
		t.Fatal("expected the second interval to complete the window")
	}
	if leaf != 2 {
		t.Fatalf("latch-closed window attributed to leaf %d, want lastLeaf 2", leaf)
	}
	if m != 4 {
		t.Fatalf("window min = %d, want min(4, 5) = 4", m)
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

// TestLatchClosedWindowsStillAdapt is the end-to-end regression for the
// onHeartbeat window-discard stall. The nest is arranged so every beat
// lands on an interior latch poll: inner size == chunk size, so polls
// alternate leaf, latch, leaf, latch, and an every-2nd-poll pulse beats
// exclusively at latches. With WindowSize 1, every completed window closes
// at a latch — under the old runtime not one of them retuned, and the
// chunk stayed pinned at its initial value for the whole run.
func TestLatchClosedWindowsStillAdapt(t *testing.T) {
	env := &latchEnv{rows: 4000, inner: 8, out: make([]int64, 4000)}
	p := MustCompile(latchNest(), Options{
		Chunk:            ChunkPolicy{Kind: ChunkAdaptive},
		TargetPolls:      4,
		WindowSize:       1,
		InitialChunk:     8,
		DisablePromotion: true, // keep the poll sequence exactly periodic
	})
	team := sched.NewTeam(1)
	defer team.Close()
	x := NewExec(p, team, pulse.NewEveryN(2), DefaultHeartbeat, env)
	x.Start()
	defer x.Stop()
	x.Run()
	if got := x.Chunks(0)[0]; got == 8 {
		t.Fatalf("adaptive chunk still at initial 8 after %d latch-closed windows: window data was discarded", env.rows)
	}
	for i, v := range env.out {
		if v != env.inner {
			t.Fatalf("out[%d] = %d, want %d", i, v, env.inner)
		}
	}
}

// TestCompileRejectsBadChunkConfigs pins the Compile-time validation that
// replaced the old silent run-time behavior.
func TestCompileRejectsBadChunkConfigs(t *testing.T) {
	cases := []struct {
		name string
		o    Options
		want string
	}{
		{"negative static size", Options{Chunk: ChunkPolicy{Kind: ChunkStatic, Size: -8}}, "negative"},
		{"negative weight", Options{Chunk: ChunkPolicy{Kind: ChunkWeighted, Weights: []float64{1, -1}}}, "Weights"},
		{"auto as its own candidate", Options{Chunk: ChunkPolicy{Kind: ChunkAuto, Candidates: []ChunkKind{ChunkAuto}}}, "candidate"},
		{"unknown kind", Options{Chunk: ChunkPolicy{Kind: ChunkKind(99)}}, "unknown"},
		{"negative min chunk", Options{Chunk: ChunkPolicy{Kind: ChunkGuided, MinChunk: -1}}, "MinChunk"},
	}
	for _, c := range cases {
		_, err := Compile(sumNest("sum"), c.o)
		if err == nil {
			t.Errorf("%s: Compile accepted the config", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
	// Size == 0 keeps the documented default-to-1 behavior.
	p, err := Compile(sumNest("sum"), Options{Chunk: ChunkPolicy{Kind: ChunkStatic}})
	if err != nil {
		t.Fatalf("zero static size rejected: %v", err)
	}
	if got := newPolicy(PolicyInfo{Opts: p.Options()}).NextChunk(0, 0, 100); got != 1 {
		t.Fatalf("zero static size resolved to %d, want default 1", got)
	}
}

// TestParseChunkKind round-trips every schedule name.
func TestParseChunkKind(t *testing.T) {
	for _, name := range ScheduleNames() {
		k, err := ParseChunkKind(name)
		if err != nil {
			t.Fatalf("ParseChunkKind(%q): %v", name, err)
		}
		if k.String() != name {
			t.Fatalf("round-trip %q -> %v -> %q", name, k, k.String())
		}
	}
	if _, err := ParseChunkKind("banana"); err == nil {
		t.Fatal("ParseChunkKind accepted an unknown name")
	}
}

// TestSelectorStateMachine drives the online selector's profile-then-lock
// cycle directly: per-candidate medians are collected in order and the
// argmin wins.
func TestSelectorStateMachine(t *testing.T) {
	o := Options{Chunk: ChunkPolicy{
		Kind:        ChunkAuto,
		Candidates:  []ChunkKind{ChunkAdaptive, ChunkStatic, ChunkGuided},
		ProfileRuns: 2,
	}}
	s := mkPolicy(t, o, 2, 1).(*selectorPolicy)
	if st := s.State(); st.Locked || st.Active != "adaptive" {
		t.Fatalf("initial state = %+v, want unlocked on adaptive", st)
	}
	// adaptive: median 40ms; static: 10ms; guided: 25ms -> static wins.
	times := []time.Duration{
		40 * time.Millisecond, 42 * time.Millisecond, // adaptive
		10 * time.Millisecond, 11 * time.Millisecond, // static
		25 * time.Millisecond, 26 * time.Millisecond, // guided
	}
	for i, d := range times {
		if s.locked.Load() {
			t.Fatalf("locked after %d of %d profiling runs", i, len(times))
		}
		s.EndRun(d)
	}
	st := s.State()
	if !st.Locked || st.Winner != "static" || st.Active != "static" {
		t.Fatalf("final state = %+v, want locked on static", st)
	}
	if st.Profiled != len(times) {
		t.Fatalf("profiled = %d, want %d", st.Profiled, len(times))
	}
	// Further timings are ignored once locked.
	s.EndRun(time.Nanosecond)
	if got := s.State().Profiled; got != len(times) {
		t.Fatalf("profiled grew to %d after lock", got)
	}
	// The locked delegate is the static candidate.
	if c := s.NextChunk(0, 0, 1<<20); c != 1 {
		t.Fatalf("locked static chunk = %d, want resolved default 1", c)
	}
}

// TestSelectorEndToEnd runs an auto-policy Exec through enough invocations
// to lock, checking correctness of every run and the exported state.
func TestSelectorEndToEnd(t *testing.T) {
	data := make([]int64, 20000)
	var want int64
	for i := range data {
		data[i] = int64(i % 7)
		want += data[i]
	}
	p := MustCompile(sumNest("sum"), Options{Chunk: ChunkPolicy{
		Kind:        ChunkAuto,
		Candidates:  []ChunkKind{ChunkAdaptive, ChunkGuided, ChunkFactoring},
		ProfileRuns: 1,
	}})
	team := sched.NewTeam(2)
	defer team.Close()
	x := NewExec(p, team, pulse.NewEveryN(64), DefaultHeartbeat, &sumEnv{data: data})
	x.Start()
	defer x.Stop()
	if x.PolicyName() != "auto" {
		t.Fatalf("PolicyName = %q, want auto", x.PolicyName())
	}
	for i := 0; i < 5; i++ {
		if got := *x.Run().(*int64); got != want {
			t.Fatalf("run %d: sum = %d, want %d", i, got, want)
		}
	}
	st, ok := x.SelectorState()
	if !ok {
		t.Fatal("SelectorState not available on an auto Exec")
	}
	if !st.Locked {
		t.Fatalf("selector not locked after 5 runs of 3 candidates x 1 profile run: %+v", st)
	}
	found := false
	for _, c := range st.Candidates {
		if c == st.Winner {
			found = true
		}
	}
	if !found {
		t.Fatalf("winner %q not among candidates %v", st.Winner, st.Candidates)
	}
	if len(st.Medians) != 3 {
		t.Fatalf("medians for %d candidates, want 3: %+v", len(st.Medians), st)
	}
}

// TestSchedulesDifferentialSpmv runs the CSR nest under every classic
// schedule and the selector, checking bit-identical output rows against
// the serial oracle (row results are sums of the same values; the rows
// themselves are not reassociated across policies).
func TestSchedulesDifferentialSpmv(t *testing.T) {
	kinds := []ChunkKind{ChunkAdaptive, ChunkStatic, ChunkNone, ChunkGuided, ChunkFactoring, ChunkTrapezoid, ChunkWeighted, ChunkAuto}
	for _, kind := range kinds {
		env := newCSR(600)
		p := MustCompile(csrNest(), Options{Chunk: ChunkPolicy{Kind: kind, Size: 16, ProfileRuns: 1}})
		team := sched.NewTeam(4)
		x := NewExec(p, team, pulse.NewEveryN(32), DefaultHeartbeat, env)
		x.Start()
		for i := 0; i < 3; i++ {
			x.Run()
		}
		int64sEqual(t, env.out, env.serial(), kind.String())
		x.Stop()
		team.Close()
	}
}

// TestNonAutoExecHasNoSelector checks the accessor's ok=false path.
func TestNonAutoExecHasNoSelector(t *testing.T) {
	p := MustCompile(sumNest("sum"), Options{})
	team := sched.NewTeam(1)
	defer team.Close()
	x := NewExec(p, team, pulse.NewNever(), DefaultHeartbeat, &sumEnv{data: make([]int64, 8)})
	if _, ok := x.SelectorState(); ok {
		t.Fatal("SelectorState ok on an adaptive Exec")
	}
	if x.PolicyName() != "adaptive" {
		t.Fatalf("PolicyName = %q, want adaptive", x.PolicyName())
	}
}
