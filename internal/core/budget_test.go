package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"hbc/internal/loopnest"
	"hbc/internal/pulse"
	"hbc/internal/sched"
)

// budgetEnv is a CSR nest whose row lengths are chosen to hit the edges of
// the shared budget: empty rows (the latch pays one unit itself), rows
// exactly one chunk long (the chunk ends the row, so the latch polls for
// it), and rows that straddle chunk boundaries. For the depth-3 chain the
// rows are grouped into blocks, some empty (the outer latch pays). visits
// counts executions of every (i, j) — j indexes the nonzeros, so one
// counter per pair — and pres, posts and blkPosts count each row's Pre and
// tail work and each block's tail work.
type budgetEnv struct {
	rowPtr   []int64
	blkPtr   []int64
	val      []int64
	out      []int64
	visits   []atomic.Int32
	pres     []atomic.Int32
	posts    []atomic.Int32
	blkPosts []atomic.Int32
	// onVisit, when set, runs before each nonzero j: the failure tests
	// cancel or panic from inside a leaf body with it.
	onVisit func(j int64)
}

// budgetLens is the row-length pattern, repeated: leading and consecutive
// empty rows, rows one chunk long for every chunk size tested, and rows
// longer than every chunk. One pattern costs 53 units, so ten make 530, a
// multiple of chunks 1 and 2: those runs end exactly on a chunk boundary,
// whose poll must be dropped.
var budgetLens = []int64{0, 4, 4, 0, 0, 3, 1, 8, 0, 4, 5, 0, 2, 2, 4, 0, 0, 0, 1, 7}

// budgetBlocks groups budgetLens' rows into blocks for the depth-3 chain:
// empty blocks between and after non-empty ones, and blocks of one row.
var budgetBlocks = []int64{3, 0, 1, 5, 0, 0, 2, 4, 1, 4}

func newBudgetEnv(reps int) *budgetEnv {
	rows := reps * len(budgetLens)
	e := &budgetEnv{
		rowPtr: make([]int64, rows+1),
		out:    make([]int64, rows),
		pres:   make([]atomic.Int32, rows),
		posts:  make([]atomic.Int32, rows),
		blkPtr: []int64{0},
	}
	for i := 0; i < rows; i++ {
		for k := int64(0); k < budgetLens[i%len(budgetLens)]; k++ {
			e.val = append(e.val, int64(i*31)+k+1)
		}
		e.rowPtr[i+1] = int64(len(e.val))
	}
	for r := 0; r < reps; r++ {
		for _, n := range budgetBlocks {
			e.blkPtr = append(e.blkPtr, e.blkPtr[len(e.blkPtr)-1]+n)
		}
	}
	e.visits = make([]atomic.Int32, len(e.val))
	e.blkPosts = make([]atomic.Int32, len(e.blkPtr)-1)
	return e
}

// reset clears the outputs and counters for another run.
func (e *budgetEnv) reset() {
	clear(e.out)
	for _, c := range [][]atomic.Int32{e.visits, e.pres, e.posts, e.blkPosts} {
		for i := range c {
			c[i].Store(0)
		}
	}
}

// units is the budget a whole run spends: every leaf iteration, plus one
// unit for each row whose leaf ran nothing and, in the depth-3 chain, for
// each block whose rows ran nothing.
func (e *budgetEnv) units(depth int) int64 {
	var u int64
	for i := 0; i+1 < len(e.rowPtr); i++ {
		u += max(e.rowPtr[i+1]-e.rowPtr[i], 1)
	}
	if depth == 3 {
		for b := 0; b+1 < len(e.blkPtr); b++ {
			if e.blkPtr[b+1] == e.blkPtr[b] {
				u++
			}
		}
	}
	return u
}

// sliceDriver selects which loops of the budget nest carry a Slice.
type sliceDriver int

const (
	genericDriver  sliceDriver = iota // no Slice: the slices Compile builds
	leafSlice                         // the leaves only: built interior slices call them
	interiorSlices                    // every level: the templates call each other directly
)

func (d sliceDriver) String() string {
	return [...]string{"slice=false", "slice=true", "slice=all"}[d]
}

// templateLeafSlice writes the emitted leaf sliceTaskNestK template over a
// Body.
func templateLeafSlice(body loopnest.Body) loopnest.Slice {
	return func(env any, idx []int64, iv, hi int64, acc any, rt loopnest.SliceRT) int64 {
		b := rt.Budget()
		for iv < hi {
			r := *b
			if r <= 0 {
				if rt.Aborted() {
					return iv
				}
				r = rt.Chunk(hi - iv)
			}
			n := min(r, hi-iv)
			body(env, idx, iv, iv+n, acc)
			iv += n
			r -= n
			*b = r
			if r == 0 && iv < hi {
				*b = rt.Chunk(hi - iv)
				if rt.Poll() || rt.Aborted() {
					return iv
				}
			}
		}
		return iv
	}
}

// templateInteriorSlice writes the emitted interior sliceTaskNestK template,
// extended to k children, over l's hooks and its children's bounds,
// accumulators and slices: per iteration Pre; for each child its bounds,
// the accumulator reset, a direct call of its slice with rt.Child (recording
// a stop inside it) and, before the last child, the poll the child owes at
// its hi; Post; and the latch.
func templateInteriorSlice(l *loopnest.Loop) loopnest.Slice {
	return func(env any, idx []int64, iv, hi int64, acc any, rt loopnest.SliceRT) int64 {
		k := len(idx)
		cidx := append(make([]int64, 0, k+1), idx...)
		cidx = cidx[:k+1]
		crts := make([]loopnest.SliceRT, len(l.Children))
		caccs := make([]any, len(l.Children))
		for c := range l.Children {
			crts[c] = rt.Child(c)
			caccs[c] = crts[c].Acc(k + 1)
		}
		last := len(l.Children) - 1
		b := rt.Budget()
		for iv < hi {
			if rt.Aborted() {
				return iv
			}
			cidx[k] = iv
			if l.Pre != nil {
				l.Pre(env, cidx, acc)
			}
			ran := false
			for c, ch := range l.Children {
				lo, chi := ch.Bounds(env, cidx)
				visible := acc
				if ch.Reduce != nil {
					ch.Reduce.Reset(caccs[c])
					visible = caccs[c]
				}
				if lo >= chi {
					continue
				}
				ran = true
				if civ := ch.Slice(env, cidx, lo, chi, visible, crts[c]); civ < chi {
					crts[c].Stop(k+1, lo, civ, chi)
					return iv
				}
				if cb := crts[c].Budget(); c < last && *cb == 0 {
					*cb = crts[c].Chunk(0)
					if crts[c].Poll() {
						crts[c].Stop(k+1, lo, chi, chi)
						return iv
					}
				}
			}
			if l.Post != nil {
				l.Post(env, cidx, acc, caccs)
			}
			iv++
			if !ran {
				if *b <= 0 {
					*b = rt.Chunk(hi - iv)
				}
				*b--
			}
			if *b == 0 {
				if iv >= hi {
					return iv
				}
				*b = rt.Chunk(hi - iv)
				if rt.Poll() {
					return iv
				}
			}
		}
		return iv
	}
}

// budgetNest builds the CSR nest over budgetEnv: row → col, or, at depth
// 3, blk → row → col. d selects the loops carrying a Slice written to the
// emitted templates, so the runtime's slice drivers are held to the same
// rule as the generic ones.
func budgetNest(depth int, d sliceDriver) *loopnest.Nest {
	body := func(env any, idx []int64, lo, hi int64, acc any) {
		e := env.(*budgetEnv)
		s := acc.(*int64)
		for j := lo; j < hi; j++ {
			if e.onVisit != nil {
				e.onVisit(j)
			}
			e.visits[j].Add(1)
			*s += e.val[j]
		}
	}
	col := &loopnest.Loop{
		Name: "col",
		Bounds: func(env any, idx []int64) (int64, int64) {
			e := env.(*budgetEnv)
			i := idx[len(idx)-1]
			return e.rowPtr[i], e.rowPtr[i+1]
		},
		Reduce: loopnest.SumInt64(),
		Body:   body,
	}
	row := &loopnest.Loop{
		Name:     "row",
		Bounds:   func(env any, _ []int64) (int64, int64) { return 0, int64(len(env.(*budgetEnv).out)) },
		Children: []*loopnest.Loop{col},
		Pre: func(env any, idx []int64, _ any) {
			env.(*budgetEnv).pres[idx[len(idx)-1]].Add(1)
		},
		Post: func(env any, idx []int64, _ any, children []any) {
			e := env.(*budgetEnv)
			i := idx[len(idx)-1]
			e.out[i] = *children[0].(*int64)
			e.posts[i].Add(1)
		},
	}
	root := row
	if depth == 3 {
		row.Bounds = func(env any, idx []int64) (int64, int64) {
			e := env.(*budgetEnv)
			return e.blkPtr[idx[0]], e.blkPtr[idx[0]+1]
		}
		root = &loopnest.Loop{
			Name:     "blk",
			Bounds:   func(env any, _ []int64) (int64, int64) { return 0, int64(len(env.(*budgetEnv).blkPosts)) },
			Children: []*loopnest.Loop{row},
			Post: func(env any, idx []int64, _ any, _ []any) {
				env.(*budgetEnv).blkPosts[idx[0]].Add(1)
			},
		}
	}
	if d >= leafSlice {
		col.Slice = templateLeafSlice(body)
	}
	if d == interiorSlices {
		row.Slice = templateInteriorSlice(row)
		if depth == 3 {
			root.Slice = templateInteriorSlice(root)
		}
	}
	return &loopnest.Nest{Name: "budget", Root: root}
}

// TestBudgetEdgesExactlyOnce runs the budget-edge nests (row → col, and the
// depth-3 blk → row → col) under every source shape, both promotion modes,
// both promotion-target policies and every driver — generic, leaf slice,
// and slices at every level — requiring the serial elision's output and
// every (i, j), every row's Pre and tail and every block's tail executed
// exactly once. Under a never-firing source, the poll count must be the
// one the rule predicts: the budget runs out after every chunk of units,
// and each time it does, a poll follows, except after the run's final
// unit, where nothing is left to promote. That is ⌊(units − 1) / chunk⌋
// polls. The test stops at the first failing combination.
func TestBudgetEdgesExactlyOnce(t *testing.T) {
	sources := budgetSources()
	for _, depth := range []int{2, 3} {
		want := newBudgetEnv(10)
		MustCompile(budgetNest(depth, genericDriver), Options{}).RunSeq(want)
		for _, d := range []sliceDriver{genericDriver, leafSlice, interiorSlices} {
			for _, mode := range []Mode{ModeHBC, ModeTPAL} {
				for _, pol := range []Policy{PolicyOuterFirst, PolicyInnerFirst} {
					for _, chunk := range []int64{1, 2, 3, 4} {
						for _, s := range sources {
							name := budgetCase(depth, d, mode, pol, chunk, s.name)
							ok := t.Run(name, func(t *testing.T) {
								p := MustCompile(budgetNest(depth, d), Options{
									Mode:        mode,
									Policy:      pol,
									StaticChunk: chunk,
								})
								env := newBudgetEnv(10)
								src := s.mk()
								runBudget(t, p, src, env)
								checkBudgetOnce(t, env, want, depth, name)
								if s.name != "never" {
									return
								}
								if got, rule := src.Stats().Polls, (env.units(depth)-1)/chunk; got != rule {
									t.Fatalf("polls = %d, the rule predicts %d (%d units, chunk %d)", got, rule, env.units(depth), chunk)
								}
							})
							if !ok {
								// One broken combination says enough; a driver that
								// loops would otherwise cost a deadline per subtest.
								t.FailNow()
							}
						}
					}
				}
			}
		}
	}
}

// budgetSource is a named heartbeat source shape of the budget tests.
type budgetSource struct {
	name string
	mk   func() pulse.Source
}

// budgetSources returns the source shapes the budget tests run under: one
// that always fires, one that never does, and every n-th poll for n 1–5.
func budgetSources() []budgetSource {
	sources := []budgetSource{
		{"always", func() pulse.Source { return pulse.NewAlways() }},
		{"never", func() pulse.Source { return pulse.NewNever() }},
	}
	for n := int64(1); n <= 5; n++ {
		sources = append(sources, budgetSource{fmt.Sprintf("every%d", n), func() pulse.Source { return pulse.NewEveryN(n) }})
	}
	return sources
}

// budgetCase names one combination, leaving out the defaults (depth 2,
// outer-first): "slice=true/hbc/chunk2/every3",
// "depth3/slice=all/tpal/inner-first/chunk1/always".
func budgetCase(depth int, d sliceDriver, mode Mode, pol Policy, chunk int64, src string) string {
	name := fmt.Sprintf("%v/%v", d, mode)
	if depth != 2 {
		name = fmt.Sprintf("depth%d/%s", depth, name)
	}
	if pol != PolicyOuterFirst {
		name += "/" + pol.String()
	}
	return fmt.Sprintf("%s/chunk%d/%s", name, chunk, src)
}

// runBudget runs the nest once on two workers. A driver that re-runs an
// iteration forever under a source that always fires would hang the test;
// the deadline cancels the run instead, and the error fails it.
func runBudget(t *testing.T, p *Program, src pulse.Source, env any) {
	t.Helper()
	team := sched.NewTeam(2)
	defer team.Close()
	x := NewExec(p, team, src, DefaultHeartbeat, env)
	x.Start()
	defer x.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if _, err := x.RunCtx(ctx); err != nil {
		t.Fatalf("run: %v", err)
	}
}

// checkBudgetOnce requires the serial elision's output and every counted
// piece of work executed exactly once.
func checkBudgetOnce(t *testing.T, env, want *budgetEnv, depth int, name string) {
	t.Helper()
	int64sEqual(t, env.out, want.out, name)
	type counted struct {
		what   string
		counts []atomic.Int32
	}
	all := []counted{{"nonzero", env.visits}, {"row Pre", env.pres}, {"row tail", env.posts}}
	if depth == 3 {
		all = append(all, counted{"block tail", env.blkPosts})
	}
	for _, c := range all {
		for i := range c.counts {
			if v := c.counts[i].Load(); v != 1 {
				t.Fatalf("%s %d ran %d times", c.what, i, v)
			}
		}
	}
}

// TestInteriorSliceFailures holds the interior slice driver to the failure
// semantics of DESIGN §8 on the depth-3 chain with slices at every level,
// under promotions: a cancellation from inside a leaf body ends the run
// with context.Canceled and runs nothing twice, a panic in a leaf body
// surfaces as a *PanicError, and the same Exec then runs the nest to the
// serial elision's output, every piece of work exactly once.
func TestInteriorSliceFailures(t *testing.T) {
	want := newBudgetEnv(10)
	MustCompile(budgetNest(3, genericDriver), Options{}).RunSeq(want)
	p := MustCompile(budgetNest(3, interiorSlices), Options{StaticChunk: 3})
	team := sched.NewTeam(2)
	defer team.Close()
	env := newBudgetEnv(10)
	x := NewExec(p, team, pulse.NewEveryN(2), DefaultHeartbeat, env)
	x.Start()
	defer x.Stop()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	env.onVisit = func(j int64) {
		if j == 100 {
			cancel()
			// RunCtx raises the abort flag from its own goroutine; wait
			// for it so the run cannot finish before it is cancelled.
			for !x.ctl.canceled() {
				runtime.Gosched()
			}
		}
	}
	if _, err := x.RunCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: err = %v, want context.Canceled", err)
	}
	for _, c := range [][]atomic.Int32{env.visits, env.pres, env.posts, env.blkPosts} {
		for i := range c {
			if v := c[i].Load(); v > 1 {
				t.Fatalf("cancelled run executed a piece of work %d times", v)
			}
		}
	}

	env.reset()
	env.onVisit = func(j int64) {
		if j == 200 {
			panic("trapped")
		}
	}
	var pe *PanicError
	if _, err := x.RunCtx(context.Background()); !errors.As(err, &pe) || pe.Value != "trapped" {
		t.Fatalf("panicking run: err = %v, want a *PanicError carrying the panic", err)
	}

	env.reset()
	env.onVisit = nil
	if _, err := x.RunCtx(context.Background()); err != nil {
		t.Fatalf("run after the failures: %v", err)
	}
	checkBudgetOnce(t, env, want, 3, "run after the failures")
}

// bushyBudgetEnv is the bushy nest of TestBushyTreeExecutionUnderPromotion
// — r(7) → {ma(5) → {la(4), lb(4)}, mb(3) → {lc(4)}} — with every piece of
// work counted: visits[cell*1000+i*100+j*10+v] for each leaf iteration,
// maPres and maPosts for ma's Pre and tail, mbPosts for mb's tail. Each leaf
// sums into its own reduction, and the tails record the sums, so the
// children accumulators of an iteration with siblings are checked too. The
// sparse variant shortens lb and lc by their indices, often to nothing: an
// iteration of ma whose last child ran nothing after la ran, and idle
// iterations of mb.
type bushyBudgetEnv struct {
	visits  []atomic.Int32
	maPres  []atomic.Int32
	maPosts []atomic.Int32
	mbPosts []atomic.Int32
	out     []int64
}

func newBushyBudgetEnv() *bushyBudgetEnv {
	return &bushyBudgetEnv{
		visits:  make([]atomic.Int32, 3000),
		maPres:  make([]atomic.Int32, 7*10),
		maPosts: make([]atomic.Int32, 7*10),
		mbPosts: make([]atomic.Int32, 7*10),
		out:     make([]int64, 2*7*10),
	}
}

// bushyBudgetNest builds the bushy nest; d selects the loops carrying a
// Slice written to the emitted templates.
func bushyBudgetNest(d sliceDriver, sparse bool) *loopnest.Nest {
	leaf := func(name string, cell int64) *loopnest.Loop {
		bounds := loopnest.RangeN(4)
		if sparse && cell > 0 {
			bounds = func(_ any, idx []int64) (int64, int64) { return 0, (idx[0]*cell + idx[1]) % 3 }
		}
		l := &loopnest.Loop{Name: name, Bounds: bounds, Reduce: loopnest.SumInt64(),
			Body: func(env any, idx []int64, lo, hi int64, acc any) {
				e := env.(*bushyBudgetEnv)
				for v := lo; v < hi; v++ {
					e.visits[cell*1000+idx[0]*100+idx[1]*10+v].Add(1)
					*acc.(*int64) += v + 1 + cell*10
				}
			}}
		if d >= leafSlice {
			l.Slice = templateLeafSlice(l.Body)
		}
		return l
	}
	ma := &loopnest.Loop{Name: "ma", Bounds: loopnest.RangeN(5),
		Children: []*loopnest.Loop{leaf("la", 0), leaf("lb", 1)},
		Pre: func(env any, idx []int64, _ any) {
			env.(*bushyBudgetEnv).maPres[idx[0]*10+idx[1]].Add(1)
		},
		Post: func(env any, idx []int64, _ any, children []any) {
			e := env.(*bushyBudgetEnv)
			e.out[idx[0]*10+idx[1]] = *children[0].(*int64)*1000 + *children[1].(*int64)
			e.maPosts[idx[0]*10+idx[1]].Add(1)
		}}
	mb := &loopnest.Loop{Name: "mb", Bounds: loopnest.RangeN(3),
		Children: []*loopnest.Loop{leaf("lc", 2)},
		Post: func(env any, idx []int64, _ any, children []any) {
			e := env.(*bushyBudgetEnv)
			e.out[70+idx[0]*10+idx[1]] = *children[0].(*int64)
			e.mbPosts[idx[0]*10+idx[1]].Add(1)
		}}
	root := &loopnest.Loop{Name: "r", Bounds: loopnest.RangeN(7),
		Children: []*loopnest.Loop{ma, mb}}
	if d == interiorSlices {
		for _, l := range []*loopnest.Loop{ma, mb, root} {
			l.Slice = templateInteriorSlice(l)
		}
	}
	return &loopnest.Nest{Name: "bushy-budget", Root: root}
}

// bushyNeverPolls[sparse][chunk-1] is the poll count of the bushy nest
// under a never-firing source. No chain formula covers siblings, so the
// counts are the ones the per-loop generic drivers gave before every loop
// ran as a slice task.
var bushyNeverPolls = [2][4]int64{{363, 181, 119, 90}, {201, 100, 66, 49}}

// TestBushyBudgetExactlyOnce runs the bushy nest under every source shape,
// both promotion modes, chunks 1–4 and every driver on two workers,
// requiring the serial elision's output and every leaf iteration, Pre and
// tail executed exactly once, and under a never-firing source the poll
// count bushyNeverPolls records.
func TestBushyBudgetExactlyOnce(t *testing.T) {
	sources := budgetSources()
	for si, sparse := range []bool{false, true} {
		want := newBushyBudgetEnv()
		MustCompile(bushyBudgetNest(genericDriver, sparse), Options{}).RunSeq(want)
		for _, d := range []sliceDriver{genericDriver, leafSlice, interiorSlices} {
			for _, mode := range []Mode{ModeHBC, ModeTPAL} {
				for _, chunk := range []int64{1, 2, 3, 4} {
					for _, s := range sources {
						name := fmt.Sprintf("%v/%v/chunk%d/%s", d, mode, chunk, s.name)
						if sparse {
							name = "sparse/" + name
						}
						ok := t.Run(name, func(t *testing.T) {
							p := MustCompile(bushyBudgetNest(d, sparse), Options{
								Mode:        mode,
								StaticChunk: chunk,
							})
							env := newBushyBudgetEnv()
							src := s.mk()
							runBudget(t, p, src, env)
							int64sEqual(t, env.out, want.out, name)
							for _, c := range []struct {
								what   string
								counts []atomic.Int32
								ran    []atomic.Int32
							}{
								{"leaf iteration", env.visits, want.visits},
								{"ma Pre", env.maPres, want.maPres},
								{"ma tail", env.maPosts, want.maPosts},
								{"mb tail", env.mbPosts, want.mbPosts},
							} {
								for i := range c.counts {
									if got, w := c.counts[i].Load(), c.ran[i].Load(); got != w {
										t.Fatalf("%s %d ran %d times, want %d", c.what, i, got, w)
									}
								}
							}
							if got, w := src.Stats().Polls, bushyNeverPolls[si][chunk-1]; s.name == "never" && got != w {
								t.Fatalf("polls = %d, want %d", got, w)
							}
						})
						if !ok {
							t.FailNow()
						}
					}
				}
			}
		}
	}
}
