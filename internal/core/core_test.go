package core

import (
	"sync/atomic"
	"testing"

	"hbc/internal/loopnest"
	"hbc/internal/pulse"
	"hbc/internal/sched"
)

// --- test nests -----------------------------------------------------------

// sumEnv is a 1-level reduction: sum of data.
type sumEnv struct{ data []int64 }

func sumNest(name string) *loopnest.Nest {
	return &loopnest.Nest{
		Name: name,
		Root: &loopnest.Loop{
			Name: "sum",
			Bounds: func(env any, _ []int64) (int64, int64) {
				return 0, int64(len(env.(*sumEnv).data))
			},
			Reduce: loopnest.SumInt64(),
			Body: func(env any, _ []int64, lo, hi int64, acc any) {
				e := env.(*sumEnv)
				s := acc.(*int64)
				for i := lo; i < hi; i++ {
					*s += e.data[i]
				}
			},
		},
	}
}

// csrEnv is the spmv running example on int64s: a CSR matrix times a vector,
// with an inner reduction feeding the outer loop's tail work out[i] = result.
type csrEnv struct {
	rowPtr []int64
	colInd []int64
	val    []int64
	in     []int64
	out    []int64
	posts  atomic.Int64 // how many times the tail work ran
}

func (e *csrEnv) rows() int64 { return int64(len(e.rowPtr) - 1) }

func csrNest() *loopnest.Nest {
	col := &loopnest.Loop{
		Name: "col",
		Bounds: func(env any, idx []int64) (int64, int64) {
			e := env.(*csrEnv)
			return e.rowPtr[idx[0]], e.rowPtr[idx[0]+1]
		},
		Reduce: loopnest.SumInt64(),
		Body: func(env any, idx []int64, lo, hi int64, acc any) {
			e := env.(*csrEnv)
			s := acc.(*int64)
			for j := lo; j < hi; j++ {
				*s += e.val[j] * e.in[e.colInd[j]]
			}
		},
	}
	row := &loopnest.Loop{
		Name:     "row",
		Bounds:   func(env any, _ []int64) (int64, int64) { return 0, env.(*csrEnv).rows() },
		Children: []*loopnest.Loop{col},
		Post: func(env any, idx []int64, _ any, children []any) {
			e := env.(*csrEnv)
			e.out[idx[0]] = *children[0].(*int64)
			e.posts.Add(1)
		},
	}
	return &loopnest.Nest{Name: "spmv", Root: row}
}

// newCSR builds a small irregular matrix: row i has (i*7)%13 nonzeros.
func newCSR(rows int) *csrEnv {
	e := &csrEnv{rowPtr: make([]int64, rows+1), out: make([]int64, rows)}
	for i := 0; i < rows; i++ {
		nnz := (i*7)%13 + 1
		for k := 0; k < nnz; k++ {
			e.colInd = append(e.colInd, int64((i+k*3)%rows))
			e.val = append(e.val, int64(k+1))
		}
		e.rowPtr[i+1] = int64(len(e.val))
	}
	e.in = make([]int64, rows)
	for i := range e.in {
		e.in[i] = int64(i%17 + 1)
	}
	return e
}

func (e *csrEnv) serial() []int64 {
	out := make([]int64, e.rows())
	for i := int64(0); i < e.rows(); i++ {
		var s int64
		for j := e.rowPtr[i]; j < e.rowPtr[i+1]; j++ {
			s += e.val[j] * e.in[e.colInd[j]]
		}
		out[i] = s
	}
	return out
}

// threeEnv is a 3-level nest: a global sum over a (i, j, k) space where the
// k extent depends on (i+j), exercising deep leftover chains.
type threeEnv struct {
	n     int64
	total int64 // filled by comparing against the closed form in tests
}

func threeNest() *loopnest.Nest {
	k := &loopnest.Loop{
		Name: "k",
		Bounds: func(_ any, idx []int64) (int64, int64) {
			return 0, (idx[0]+idx[1])%5 + 1
		},
		Body: func(_ any, idx []int64, lo, hi int64, acc any) {
			s := acc.(*int64)
			for v := lo; v < hi; v++ {
				*s += idx[0]*1000 + idx[1]*10 + v
			}
		},
	}
	j := &loopnest.Loop{
		Name:     "j",
		Bounds:   func(env any, _ []int64) (int64, int64) { return 0, env.(*threeEnv).n },
		Children: []*loopnest.Loop{k},
	}
	i := &loopnest.Loop{
		Name:     "i",
		Bounds:   func(env any, _ []int64) (int64, int64) { return 0, env.(*threeEnv).n },
		Children: []*loopnest.Loop{j},
		Reduce:   loopnest.SumInt64(),
	}
	return &loopnest.Nest{Name: "three", Root: i}
}

func threeSerial(n int64) int64 {
	var s int64
	for i := int64(0); i < n; i++ {
		for j := int64(0); j < n; j++ {
			for k := int64(0); k < (i+j)%5+1; k++ {
				s += i*1000 + j*10 + k
			}
		}
	}
	return s
}

// siblingEnv exercises two leaf children under one parent iteration.
type siblingEnv struct {
	n    int64
	outA []int64
	outB []int64
}

func siblingNest() *loopnest.Nest {
	a := &loopnest.Loop{
		Name:   "a",
		Bounds: loopnest.FixedRange(0, 8),
		Reduce: loopnest.SumInt64(),
		Body: func(_ any, idx []int64, lo, hi int64, acc any) {
			s := acc.(*int64)
			for v := lo; v < hi; v++ {
				*s += idx[0] + v
			}
		},
	}
	b := &loopnest.Loop{
		Name:   "b",
		Bounds: loopnest.FixedRange(0, 5),
		Reduce: loopnest.SumInt64(),
		Body: func(_ any, idx []int64, lo, hi int64, acc any) {
			s := acc.(*int64)
			for v := lo; v < hi; v++ {
				*s += idx[0] * v
			}
		},
	}
	outer := &loopnest.Loop{
		Name:     "outer",
		Bounds:   func(env any, _ []int64) (int64, int64) { return 0, env.(*siblingEnv).n },
		Children: []*loopnest.Loop{a, b},
		Post: func(env any, idx []int64, _ any, children []any) {
			e := env.(*siblingEnv)
			e.outA[idx[0]] = *children[0].(*int64)
			e.outB[idx[0]] = *children[1].(*int64)
		},
	}
	return &loopnest.Nest{Name: "siblings", Root: outer}
}

func (e *siblingEnv) serial() ([]int64, []int64) {
	oa := make([]int64, e.n)
	ob := make([]int64, e.n)
	for i := int64(0); i < e.n; i++ {
		var sa, sb int64
		for v := int64(0); v < 8; v++ {
			sa += i + v
		}
		for v := int64(0); v < 5; v++ {
			sb += i * v
		}
		oa[i], ob[i] = sa, sb
	}
	return oa, ob
}

// --- helpers ---------------------------------------------------------------

func runWith(t *testing.T, p *Program, src pulse.Source, workers int, env any) any {
	t.Helper()
	team := sched.NewTeam(workers)
	defer team.Close()
	x := NewExec(p, team, src, DefaultHeartbeat, env)
	x.Start()
	defer x.Stop()
	return x.Run()
}

func int64sEqual(t *testing.T, got, want []int64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d != %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: [%d] = %d, want %d", label, i, got[i], want[i])
		}
	}
}

// --- compilation artifacts --------------------------------------------------

func TestCompileAssignsIDs(t *testing.T) {
	p := MustCompile(csrNest(), Options{})
	ids := p.LoopIDs()
	if len(ids) != 2 {
		t.Fatalf("loops = %d, want 2", len(ids))
	}
	if ids[0] != (LoopID{0, 0}) || ids[1] != (LoopID{1, 0}) {
		t.Fatalf("ids = %v, want [(0,0) (1,0)]", ids)
	}
	if p.Depth() != 2 || p.Leaves() != 1 {
		t.Fatalf("depth=%d leaves=%d", p.Depth(), p.Leaves())
	}
}

func TestCompileSiblingIndices(t *testing.T) {
	p := MustCompile(siblingNest(), Options{})
	ids := p.LoopIDs()
	want := []LoopID{{0, 0}, {1, 0}, {1, 1}}
	for i, id := range ids {
		if id != want[i] {
			t.Fatalf("ids = %v, want %v", ids, want)
		}
	}
}

func TestLeftoverTableCompleteness(t *testing.T) {
	// Chain of depth d: d(d-1)/2 pairs (the quadratic family of §3.3).
	p := MustCompile(threeNest(), Options{})
	if got := p.LeftoverCount(); got != 3 {
		t.Fatalf("LeftoverCount = %d, want 3 (pairs (k,j),(k,i),(j,i))", got)
	}
	// Sibling nest: a→outer, b→outer.
	p2 := MustCompile(siblingNest(), Options{})
	if got := p2.LeftoverCount(); got != 2 {
		t.Fatalf("sibling LeftoverCount = %d, want 2", got)
	}
}

func TestCompileRejectsInvalid(t *testing.T) {
	if _, err := Compile(&loopnest.Nest{}, Options{}); err == nil {
		t.Fatal("Compile accepted an invalid nest")
	}
}

// --- sequential oracle ------------------------------------------------------

func TestRunSeqMatchesSerial(t *testing.T) {
	env := newCSR(50)
	p := MustCompile(csrNest(), Options{})
	p.RunSeq(env)
	int64sEqual(t, env.out, env.serial(), "RunSeq spmv")

	acc := MustCompile(threeNest(), Options{}).RunSeq(&threeEnv{n: 7})
	if got := *acc.(*int64); got != threeSerial(7) {
		t.Fatalf("RunSeq three = %d, want %d", got, threeSerial(7))
	}
}

// --- execution without heartbeats -------------------------------------------

func TestRunNoHeartbeatsStaysSequentialAndCorrect(t *testing.T) {
	env := newCSR(60)
	p := MustCompile(csrNest(), Options{})
	src := pulse.NewNever()
	runWith(t, p, src, 2, env)
	int64sEqual(t, env.out, env.serial(), "no-heartbeat spmv")
	if env.posts.Load() != 60 {
		t.Fatalf("posts = %d, want 60", env.posts.Load())
	}
}

func TestRunSumNoHeartbeats(t *testing.T) {
	data := make([]int64, 10000)
	var want int64
	for i := range data {
		data[i] = int64(i%23 - 11)
		want += data[i]
	}
	p := MustCompile(sumNest("sum"), Options{})
	acc := runWith(t, p, pulse.NewNever(), 1, &sumEnv{data: data})
	if got := *acc.(*int64); got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
}

// --- execution under extreme promotion pressure ------------------------------

func TestPromoteEveryPollSum(t *testing.T) {
	data := make([]int64, 5000)
	var want int64
	for i := range data {
		data[i] = int64(3*i - 700)
		want += data[i]
	}
	p := MustCompile(sumNest("sum"), Options{StaticChunk: 7})
	for _, workers := range []int{1, 2, 4} {
		acc := runWith(t, p, pulse.NewAlways(), workers, &sumEnv{data: data})
		if got := *acc.(*int64); got != want {
			t.Fatalf("workers=%d: sum = %d, want %d", workers, got, want)
		}
	}
}

func TestPromoteEveryPollSpmv(t *testing.T) {
	for _, workers := range []int{1, 3} {
		env := newCSR(80)
		p := MustCompile(csrNest(), Options{StaticChunk: 3})
		runWith(t, p, pulse.NewAlways(), workers, env)
		int64sEqual(t, env.out, env.serial(), "always-promote spmv")
		if env.posts.Load() != 80 {
			t.Fatalf("workers=%d: posts = %d, want 80 (tail work must run exactly once per row)",
				workers, env.posts.Load())
		}
	}
}

func TestPromoteEveryPollThreeLevels(t *testing.T) {
	want := threeSerial(9)
	p := MustCompile(threeNest(), Options{StaticChunk: 1})
	for _, workers := range []int{1, 2, 4} {
		acc := runWith(t, p, pulse.NewAlways(), workers, &threeEnv{n: 9})
		if got := *acc.(*int64); got != want {
			t.Fatalf("workers=%d: three = %d, want %d", workers, got, want)
		}
	}
}

func TestPromoteEveryPollSiblings(t *testing.T) {
	env := &siblingEnv{n: 40, outA: make([]int64, 40), outB: make([]int64, 40)}
	p := MustCompile(siblingNest(), Options{StaticChunk: 1})
	runWith(t, p, pulse.NewAlways(), 3, env)
	wa, wb := env.serial()
	int64sEqual(t, env.outA, wa, "sibling outA")
	int64sEqual(t, env.outB, wb, "sibling outB")
}

func TestDeterministicEveryNPromotions(t *testing.T) {
	for _, n := range []int64{2, 3, 5, 17} {
		env := newCSR(70)
		p := MustCompile(csrNest(), Options{StaticChunk: 2})
		runWith(t, p, pulse.NewEveryN(n), 2, env)
		int64sEqual(t, env.out, env.serial(), "everyN spmv")
	}
}

// --- TPAL mode ---------------------------------------------------------------

func TestTPALModeCorrect(t *testing.T) {
	env := newCSR(80)
	p := MustCompile(csrNest(), Options{
		Mode:        ModeTPAL,
		StaticChunk: 4,
	})
	runWith(t, p, pulse.NewAlways(), 3, env)
	int64sEqual(t, env.out, env.serial(), "tpal spmv")

	want := threeSerial(8)
	p2 := MustCompile(threeNest(), Options{Mode: ModeTPAL, StaticChunk: 1})
	acc := runWith(t, p2, pulse.NewAlways(), 2, &threeEnv{n: 8})
	if got := *acc.(*int64); got != want {
		t.Fatalf("tpal three = %d, want %d", got, want)
	}
}

// --- promotion disabled -------------------------------------------------------

func TestDisablePromotionStaysSerial(t *testing.T) {
	env := newCSR(40)
	p := MustCompile(csrNest(), Options{
		DisablePromotion: true,
		StaticChunk:      2,
	})
	team := sched.NewTeam(2)
	defer team.Close()
	x := NewExec(p, team, pulse.NewAlways(), DefaultHeartbeat, env)
	x.Start()
	defer x.Stop()
	x.Run()
	int64sEqual(t, env.out, env.serial(), "promotion-disabled spmv")
	if x.Stats().Promotions() != 0 {
		t.Fatalf("promotions = %d, want 0", x.Stats().Promotions())
	}
	if x.Stats().TasksForked() != 0 {
		t.Fatalf("tasks forked = %d, want 0", x.Stats().TasksForked())
	}
}

// --- stats ---------------------------------------------------------------------

func TestPromotionStatsByLevel(t *testing.T) {
	env := newCSR(200)
	p := MustCompile(csrNest(), Options{StaticChunk: 1})
	team := sched.NewTeam(2)
	defer team.Close()
	x := NewExec(p, team, pulse.NewEveryN(4), DefaultHeartbeat, env)
	x.Start()
	defer x.Stop()
	x.Run()
	int64sEqual(t, env.out, env.serial(), "stats spmv")
	st := x.Stats()
	if st.Promotions() == 0 {
		t.Fatal("expected promotions")
	}
	lv := st.ByLevel()
	var sum int64
	for _, v := range lv {
		sum += v
	}
	if sum != st.Promotions() {
		t.Fatalf("level counts %v don't sum to total %d", lv, st.Promotions())
	}
	// Outer-loop-first: with plenty of rows remaining, level 0 dominates.
	if lv[0] == 0 {
		t.Fatalf("no outer-level promotions: %v", lv)
	}
	if st.LeftoverRuns() == 0 {
		t.Fatal("expected leftover tasks to run")
	}
	st.Reset()
	if st.Promotions() != 0 || st.ByLevel()[0] != 0 {
		t.Fatal("Reset did not clear stats")
	}
}

// --- chunking ---------------------------------------------------------------------

// TestChunkSizeTransferring checks that with static chunk S, polls happen
// exactly every S units of the task's budget even when leaf invocations are
// shorter than S — the budget must carry across invocations within a task,
// and interior latches spend from it instead of polling per iteration.
func TestChunkSizeTransferring(t *testing.T) {
	// 10 rows of exactly 3 nonzeros = 30 leaf iterations; chunk 7 → the
	// budget runs out at leaf iterations 7, 14, 21 and 28. Iterations 7, 14
	// and 28 fall inside a row, so the leaf polls there. Iteration 21 ends
	// row 7, so that chunk leaves R at 0 and row 7's latch takes the poll.
	// No row is empty, so no latch debits a unit of its own. Use a
	// never-firing source to count polls exactly.
	env := &csrEnv{rowPtr: make([]int64, 11), out: make([]int64, 10)}
	for i := 0; i < 10; i++ {
		for k := 0; k < 3; k++ {
			env.colInd = append(env.colInd, int64(i))
			env.val = append(env.val, 1)
		}
		env.rowPtr[i+1] = int64(len(env.val))
	}
	env.in = make([]int64, 10)
	for i := range env.in {
		env.in[i] = 1
	}
	p := MustCompile(csrNest(), Options{StaticChunk: 7})
	src := pulse.NewNever()
	runWith(t, p, src, 1, env)
	st := src.Stats()
	if st.Polls != 4 {
		t.Fatalf("polls = %d, want 4 (3 leaf + 1 latch)", st.Polls)
	}
}

// TestChunkNonePollsEveryIteration checks the no-chunking ablation: a poll
// after every iteration except the last, whose chunk ends the root's
// invocation and leaves nothing to promote.
func TestChunkNonePollsEveryIteration(t *testing.T) {
	data := make([]int64, 100)
	p := MustCompile(sumNest("sum"), Options{StaticChunk: 1})
	src := pulse.NewNever()
	runWith(t, p, src, 1, &sumEnv{data: data})
	if st := src.Stats(); st.Polls != 99 {
		t.Fatalf("polls = %d, want 99", st.Polls)
	}
}

// --- adaptive chunking ----------------------------------------------------------

func TestAdaptiveChunkGrowsUnderFrequentPolls(t *testing.T) {
	// Never-firing source: polls accumulate... no heartbeat, no update. Use
	// EveryN so that each heartbeat interval contains ~N polls, far above
	// the target of 4 → chunk must grow.
	data := make([]int64, 200000)
	p := MustCompile(sumNest("sum"), Options{
		TargetPolls: 4,
		WindowSize:  2,
	})
	team := sched.NewTeam(1)
	defer team.Close()
	x := NewExec(p, team, pulse.NewEveryN(64), DefaultHeartbeat, &sumEnv{data: data})
	x.Start()
	defer x.Stop()
	x.Run()
	if got := x.Chunks(0)[0]; got <= 1 {
		t.Fatalf("adaptive chunk = %d, want growth above 1", got)
	}
}

func TestAdaptiveChunkShrinksWhenBeatsMissed(t *testing.T) {
	// Start from a large chunk, then deliver a beat on every poll: the
	// minimum poll count per interval is 1 < target 4 → chunk shrinks.
	data := make([]int64, 100000)
	p := MustCompile(sumNest("sum"), Options{
		TargetPolls: 4,
		WindowSize:  2,
	})
	team := sched.NewTeam(1)
	defer team.Close()
	x := NewExec(p, team, pulse.NewAlways(), DefaultHeartbeat, &sumEnv{data: data})
	x.Start()
	defer x.Stop()
	// Seed a large chunk.
	x.ch.rows[0].c[0].Store(1024)
	x.Run()
	if got := x.Chunks(0)[0]; got >= 1024 {
		t.Fatalf("adaptive chunk = %d, want shrink below 1024", got)
	}
}

// --- timing-based smoke (real heartbeats, real stealing) -------------------------

func TestRealHeartbeatsSpmv(t *testing.T) {
	env := newCSR(3000)
	p := MustCompile(csrNest(), Options{})
	team := sched.NewTeam(4)
	defer team.Close()
	x := NewExec(p, team, pulse.NewTimer(), 50_000 /* 50µs */, env)
	x.Start()
	defer x.Stop()
	x.Run()
	int64sEqual(t, env.out, env.serial(), "timer spmv")
}

func TestRepeatedRunsAccumulateAC(t *testing.T) {
	env := newCSR(500)
	p := MustCompile(csrNest(), Options{})
	team := sched.NewTeam(2)
	defer team.Close()
	x := NewExec(p, team, pulse.NewEveryN(32), DefaultHeartbeat, env)
	x.Start()
	defer x.Stop()
	for i := 0; i < 5; i++ {
		env.posts.Store(0)
		x.Run()
		int64sEqual(t, env.out, env.serial(), "repeated spmv")
		if env.posts.Load() != 500 {
			t.Fatalf("run %d: posts = %d, want 500", i, env.posts.Load())
		}
	}
}
