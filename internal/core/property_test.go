package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hbc/internal/loopnest"
	"hbc/internal/pulse"
	"hbc/internal/sched"
)

// randNest builds a random chain-shaped nest of the given depth. Every level
// may reduce into a shared *int64 cell-sum; the leaf writes a per-path value
// into a flat output array so both reductions and DOALL side effects are
// checked. Bounds of inner loops depend on outer indices to exercise
// irregular iteration spaces.
type propEnv struct {
	dims []int64 // extent per level (inner extents modulated by outer idx)
	out  []int64
}

func (e *propEnv) extent(level int, idx []int64) int64 {
	d := e.dims[level]
	if level == 0 {
		return d
	}
	// Irregular: shrink by outer index parity, but never below 0.
	m := (idx[level-1]*7 + int64(level)) % 3
	n := d - m
	if n < 0 {
		n = 0
	}
	return n
}

// flat maps an iteration to a unique output cell (dims are < 16, so base-16
// digits never collide — each DOALL iteration owns exactly one cell).
func (e *propEnv) flat(idx []int64, last int64) int64 {
	f := int64(0)
	for _, v := range idx {
		f = f*16 + v
	}
	return f*16 + last
}

func buildPropNest(depth int, reduceMask uint8) *loopnest.Nest {
	var build func(level int) *loopnest.Loop
	build = func(level int) *loopnest.Loop {
		l := &loopnest.Loop{
			Name: "L" + string(rune('0'+level)),
			Bounds: func(env any, idx []int64) (int64, int64) {
				return 0, env.(*propEnv).extent(level, idx)
			},
		}
		if reduceMask&(1<<level) != 0 {
			l.Reduce = loopnest.SumInt64()
		}
		if level == depth-1 {
			l.Body = func(env any, idx []int64, lo, hi int64, acc any) {
				e := env.(*propEnv)
				for v := lo; v < hi; v++ {
					e.out[e.flat(idx, v)] += v + 1
					if acc != nil {
						*acc.(*int64) += v + int64(level)
					}
				}
			}
			return l
		}
		l.Children = []*loopnest.Loop{build(level + 1)}
		return l
	}
	return &loopnest.Nest{Name: "prop", Root: build(0)}
}

// TestQuickRandomNestsMatchOracle is the central property test: any nest,
// any promotion schedule, any worker count, any chunk policy must produce
// exactly the serial result.
func TestQuickRandomNestsMatchOracle(t *testing.T) {
	f := func(depthSeed, reduceMask, everyN, workers, chunkSel uint8, dimSeed int64) bool {
		depth := int(depthSeed)%3 + 1
		rng := rand.New(rand.NewSource(dimSeed))
		dims := make([]int64, depth)
		for i := range dims {
			dims[i] = int64(rng.Intn(9)) + 1
		}
		// Root reduction bit forced on half the time to exercise root accs.
		mask := reduceMask & ((1 << depth) - 1)

		nest := buildPropNest(depth, mask)
		var chunk int64 // Adaptive Chunking
		switch chunkSel % 3 {
		case 1:
			chunk = int64(chunkSel%5) + 1
		case 2:
			chunk = 1
		}
		p, err := Compile(nest, Options{StaticChunk: chunk})
		if err != nil {
			return false
		}

		outLen := 4096 // 16^3, one cell per possible iteration
		seq := &propEnv{dims: dims, out: make([]int64, outLen)}
		wantAcc := p.RunSeq(seq)

		par := &propEnv{dims: dims, out: make([]int64, outLen)}
		team := sched.NewTeam(int(workers)%3 + 1)
		defer team.Close()
		n := int64(everyN)%6 + 1
		x := NewExec(p, team, pulse.NewEveryN(n), DefaultHeartbeat, par)
		x.Start()
		defer x.Stop()
		gotAcc := x.Run()

		for i := range seq.out {
			if seq.out[i] != par.out[i] {
				t.Logf("out[%d]: got %d want %d (depth=%d mask=%b n=%d)",
					i, par.out[i], seq.out[i], depth, mask, n)
				return false
			}
		}
		if (wantAcc == nil) != (gotAcc == nil) {
			return false
		}
		if wantAcc != nil && *wantAcc.(*int64) != *gotAcc.(*int64) {
			t.Logf("acc: got %d want %d (depth=%d mask=%b n=%d)",
				*gotAcc.(*int64), *wantAcc.(*int64), depth, mask, n)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60}
	if testing.Short() {
		cfg.MaxCount = 15
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickTPALMatchesOracle repeats the property under TPAL-mode
// promotions.
func TestQuickTPALMatchesOracle(t *testing.T) {
	f := func(reduceMask, everyN uint8, dimSeed int64) bool {
		depth := 3
		rng := rand.New(rand.NewSource(dimSeed))
		dims := make([]int64, depth)
		for i := range dims {
			dims[i] = int64(rng.Intn(7)) + 1
		}
		nest := buildPropNest(depth, reduceMask&7)
		p, err := Compile(nest, Options{Mode: ModeTPAL, StaticChunk: 1})
		if err != nil {
			return false
		}
		seq := &propEnv{dims: dims, out: make([]int64, 4096)}
		wantAcc := p.RunSeq(seq)
		par := &propEnv{dims: dims, out: make([]int64, 4096)}
		team := sched.NewTeam(2)
		defer team.Close()
		x := NewExec(p, team, pulse.NewEveryN(int64(everyN)%4+1), DefaultHeartbeat, par)
		x.Start()
		defer x.Stop()
		gotAcc := x.Run()
		for i := range seq.out {
			if seq.out[i] != par.out[i] {
				return false
			}
		}
		if wantAcc != nil && *wantAcc.(*int64) != *gotAcc.(*int64) {
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40}
	if testing.Short() {
		cfg.MaxCount = 10
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickBodyCoverage verifies the chunking transformation's conservation
// law: across any promotion schedule, the leaf body processes every
// iteration exactly once (ΣC == total iterations), checked via an exact
// iteration-count reduction.
func TestQuickBodyCoverage(t *testing.T) {
	f := func(everyN, workers, size uint8) bool {
		n := int64(size)*17 + 100
		data := make([]int64, n)
		for i := range data {
			data[i] = 1
		}
		p, err := Compile(sumNest("coverage"), Options{StaticChunk: 3})
		if err != nil {
			return false
		}
		team := sched.NewTeam(int(workers)%4 + 1)
		defer team.Close()
		x := NewExec(p, team, pulse.NewEveryN(int64(everyN)%8+1), DefaultHeartbeat, &sumEnv{data: data})
		x.Start()
		defer x.Stop()
		acc := x.Run()
		return *acc.(*int64) == n
	}
	cfg := &quick.Config{MaxCount: 50}
	if testing.Short() {
		cfg.MaxCount = 12
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickStaticMatchesOracle runs the random-nest property under the
// static scheduler (extension): block partitioning must also match the
// serial result exactly.
func TestQuickStaticMatchesOracle(t *testing.T) {
	f := func(depthSeed, reduceMask, workers uint8, dimSeed int64) bool {
		depth := int(depthSeed)%3 + 1
		rng := rand.New(rand.NewSource(dimSeed))
		dims := make([]int64, depth)
		for i := range dims {
			dims[i] = int64(rng.Intn(9)) + 1
		}
		nest := buildPropNest(depth, reduceMask&((1<<depth)-1))
		p, err := Compile(nest, Options{})
		if err != nil {
			return false
		}
		seq := &propEnv{dims: dims, out: make([]int64, 4096)}
		wantAcc := p.RunSeq(seq)
		par := &propEnv{dims: dims, out: make([]int64, 4096)}
		team := sched.NewTeam(int(workers)%4 + 1)
		defer team.Close()
		gotAcc := p.RunStatic(team, par)
		for i := range seq.out {
			if seq.out[i] != par.out[i] {
				return false
			}
		}
		if (wantAcc == nil) != (gotAcc == nil) {
			return false
		}
		if wantAcc != nil && *wantAcc.(*int64) != *gotAcc.(*int64) {
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50}
	if testing.Short() {
		cfg.MaxCount = 12
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
