package core

import (
	"testing"

	"hbc/internal/loopnest"
	"hbc/internal/pulse"
	"hbc/internal/sched"
)

// fourEnv drives a 4-level chain summing a function of all four indices
// into a flat array, with per-level irregular extents.
type fourEnv struct {
	n   int64
	out []int64
}

func fourNest() *loopnest.Nest {
	leaf := &loopnest.Loop{
		Name: "d",
		Bounds: func(_ any, idx []int64) (int64, int64) {
			return 0, (idx[0]+idx[1]+idx[2])%4 + 1
		},
		Body: func(env any, idx []int64, lo, hi int64, _ any) {
			e := env.(*fourEnv)
			base := ((idx[0]*e.n+idx[1])*e.n + idx[2]) * 8
			for v := lo; v < hi; v++ {
				e.out[base+v] = idx[0] + 10*idx[1] + 100*idx[2] + 1000*v + 1
			}
		},
	}
	c := &loopnest.Loop{
		Name:     "c",
		Bounds:   func(env any, _ []int64) (int64, int64) { return 0, env.(*fourEnv).n },
		Children: []*loopnest.Loop{leaf},
	}
	b := &loopnest.Loop{
		Name:     "b",
		Bounds:   func(env any, _ []int64) (int64, int64) { return 0, env.(*fourEnv).n },
		Children: []*loopnest.Loop{c},
	}
	a := &loopnest.Loop{
		Name:     "a",
		Bounds:   func(env any, _ []int64) (int64, int64) { return 0, env.(*fourEnv).n },
		Children: []*loopnest.Loop{b},
	}
	return &loopnest.Nest{Name: "four", Root: a}
}

func newFourEnv(n int64) *fourEnv {
	return &fourEnv{n: n, out: make([]int64, n*n*n*8)}
}

func TestFourLevelNestUnderHeavyPromotion(t *testing.T) {
	p := MustCompile(fourNest(), Options{StaticChunk: 1})
	if p.Depth() != 4 {
		t.Fatalf("depth = %d, want 4", p.Depth())
	}
	// Quadratic leftover family for a 4-chain: 3+2+1 = 6.
	if got := p.LeftoverCount(); got != 6 {
		t.Fatalf("leftovers = %d, want 6", got)
	}
	want := newFourEnv(6)
	p.RunSeq(want)
	for _, workers := range []int{1, 3} {
		got := newFourEnv(6)
		runWith(t, p, pulse.NewAlways(), workers, got)
		int64sEqual(t, got.out, want.out, "four-level")
	}
}

func TestFourLevelPromotesAtEveryLevel(t *testing.T) {
	p := MustCompile(fourNest(), Options{StaticChunk: 1})
	env := newFourEnv(8)
	team := sched.NewTeam(2)
	defer team.Close()
	x := NewExec(p, team, pulse.NewEveryN(2), DefaultHeartbeat, env)
	x.Start()
	defer x.Stop()
	x.Run()
	lv := x.Stats().ByLevel()
	if len(lv) != 4 {
		t.Fatalf("levels = %v", lv)
	}
	// With this much promotion pressure every level should have been split
	// at least once: outer levels run dry and deeper parallelism activates.
	for i, v := range lv {
		if v == 0 {
			t.Fatalf("level %d never promoted: %v", i, lv)
		}
	}
}

func TestMaxChunkCapsAdaptation(t *testing.T) {
	data := make([]int64, 400_000)
	p := MustCompile(sumNest("cap"), Options{
		MaxChunk:    64,
		TargetPolls: 1,
		WindowSize:  2,
	})
	team := sched.NewTeam(1)
	defer team.Close()
	// Very sparse heartbeats: AC wants to grow the chunk hard.
	x := NewExec(p, team, pulse.NewEveryN(512), DefaultHeartbeat, &sumEnv{data: data})
	x.Start()
	defer x.Stop()
	x.Run()
	if got := x.Chunks(0)[0]; got > 64 {
		t.Fatalf("chunk = %d exceeded MaxChunk 64", got)
	}
}

func TestExecAccessors(t *testing.T) {
	env := &sumEnv{data: make([]int64, 8)}
	p := MustCompile(sumNest("acc"), Options{})
	team := sched.NewTeam(1)
	defer team.Close()
	x := NewExec(p, team, pulse.NewNever(), 0 /* default period */, env)
	if x.Env() != any(env) {
		t.Fatal("Env accessor mismatch")
	}
	x.Start()
	x.Start() // idempotent
	defer x.Stop()
	x.Run()
}

func TestRunBeforeStartPanics(t *testing.T) {
	p := MustCompile(sumNest("nostart"), Options{})
	team := sched.NewTeam(1)
	defer team.Close()
	x := NewExec(p, team, pulse.NewNever(), DefaultHeartbeat, &sumEnv{data: make([]int64, 4)})
	defer func() {
		if recover() == nil {
			t.Fatal("Run before Start should panic")
		}
	}()
	x.Run()
}

func TestLoopIDsOfBushyTree(t *testing.T) {
	// Root with two interior children, each with leaves: checks per-level
	// index assignment across subtrees.
	leafA := &loopnest.Loop{Name: "la", Bounds: loopnest.RangeN(2),
		Body: func(any, []int64, int64, int64, any) {}}
	leafB := &loopnest.Loop{Name: "lb", Bounds: loopnest.RangeN(2),
		Body: func(any, []int64, int64, int64, any) {}}
	leafC := &loopnest.Loop{Name: "lc", Bounds: loopnest.RangeN(2),
		Body: func(any, []int64, int64, int64, any) {}}
	midA := &loopnest.Loop{Name: "ma", Bounds: loopnest.RangeN(2),
		Children: []*loopnest.Loop{leafA, leafB}}
	midB := &loopnest.Loop{Name: "mb", Bounds: loopnest.RangeN(2),
		Children: []*loopnest.Loop{leafC}}
	root := &loopnest.Loop{Name: "r", Bounds: loopnest.RangeN(2),
		Children: []*loopnest.Loop{midA, midB}}
	p := MustCompile(&loopnest.Nest{Name: "bushy", Root: root}, Options{})
	ids := p.LoopIDs()
	want := []LoopID{{0, 0}, {1, 0}, {2, 0}, {2, 1}, {1, 1}, {2, 2}}
	if len(ids) != len(want) {
		t.Fatalf("ids = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("ids = %v, want %v", ids, want)
		}
	}
	// Leftover pairs: la,lb,lc each pair with their ancestors (2 each for
	// la/lb/lc) plus ma,mb with root (2) = 8.
	if got := p.LeftoverCount(); got != 8 {
		t.Fatalf("bushy leftovers = %d, want 8", got)
	}
	if p.Leaves() != 3 || p.Loops() != 6 {
		t.Fatalf("leaves=%d loops=%d", p.Leaves(), p.Loops())
	}
}

func TestBushyTreeExecutionUnderPromotion(t *testing.T) {
	type bushyEnv struct{ hits []int64 }
	mk := func(name string, cell int) *loopnest.Loop {
		return &loopnest.Loop{Name: name, Bounds: loopnest.RangeN(4),
			Body: func(env any, idx []int64, lo, hi int64, _ any) {
				e := env.(*bushyEnv)
				for v := lo; v < hi; v++ {
					e.hits[int64(cell)*1000+idx[0]*100+idx[1]*10+v]++
				}
			}}
	}
	midA := &loopnest.Loop{Name: "ma", Bounds: loopnest.RangeN(5),
		Children: []*loopnest.Loop{mk("la", 0), mk("lb", 1)}}
	midB := &loopnest.Loop{Name: "mb", Bounds: loopnest.RangeN(3),
		Children: []*loopnest.Loop{mk("lc", 2)}}
	root := &loopnest.Loop{Name: "r", Bounds: loopnest.RangeN(7),
		Children: []*loopnest.Loop{midA, midB}}
	nest := &loopnest.Nest{Name: "bushy-exec", Root: root}
	p := MustCompile(nest, Options{StaticChunk: 1})

	want := &bushyEnv{hits: make([]int64, 3000)}
	p.RunSeq(want)
	got := &bushyEnv{hits: make([]int64, 3000)}
	runWith(t, p, pulse.NewAlways(), 3, got)
	int64sEqual(t, got.hits, want.hits, "bushy execution")
}
