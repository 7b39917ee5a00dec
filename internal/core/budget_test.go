package core

import (
	"fmt"
	"sync/atomic"
	"testing"

	"hbc/internal/loopnest"
	"hbc/internal/pulse"
)

// budgetEnv is a CSR nest whose row lengths are chosen to hit the edges of
// the shared budget: empty rows (the latch pays one unit itself), rows
// exactly one chunk long (the chunk ends the row, so the latch polls for
// it), and rows that straddle chunk boundaries. visits counts executions
// of every (i, j) — j indexes the nonzeros, so one counter per pair — and
// posts counts each row's tail work.
type budgetEnv struct {
	rowPtr []int64
	val    []int64
	out    []int64
	visits []atomic.Int32
	posts  []atomic.Int32
}

// budgetLens is the row-length pattern, repeated: leading and consecutive
// empty rows, rows one chunk long for every chunk size tested, and rows
// longer than every chunk. One pattern costs 53 units, so ten make 530, a
// multiple of chunks 1 and 2: those runs end exactly on a chunk boundary,
// whose poll must be dropped.
var budgetLens = []int64{0, 4, 4, 0, 0, 3, 1, 8, 0, 4, 5, 0, 2, 2, 4, 0, 0, 0, 1, 7}

func newBudgetEnv(reps int) *budgetEnv {
	rows := reps * len(budgetLens)
	e := &budgetEnv{rowPtr: make([]int64, rows+1), out: make([]int64, rows), posts: make([]atomic.Int32, rows)}
	for i := 0; i < rows; i++ {
		for k := int64(0); k < budgetLens[i%len(budgetLens)]; k++ {
			e.val = append(e.val, int64(i*31)+k+1)
		}
		e.rowPtr[i+1] = int64(len(e.val))
	}
	e.visits = make([]atomic.Int32, len(e.val))
	return e
}

// units is the budget a whole run spends: every leaf iteration, plus one
// unit for each row whose leaf ran nothing.
func (e *budgetEnv) units() int64 {
	var u int64
	for i := 0; i+1 < len(e.rowPtr); i++ {
		u += max(e.rowPtr[i+1]-e.rowPtr[i], 1)
	}
	return u
}

// budgetNest builds the CSR nest over budgetEnv; withSlice adds a Slice
// entry written to the emitted sliceTaskNestK template, so the runtime's
// slice driver is held to the same rule as the generic one.
func budgetNest(withSlice bool) *loopnest.Nest {
	body := func(env any, idx []int64, lo, hi int64, acc any) {
		e := env.(*budgetEnv)
		s := acc.(*int64)
		for j := lo; j < hi; j++ {
			e.visits[j].Add(1)
			*s += e.val[j]
		}
	}
	col := &loopnest.Loop{
		Name: "col",
		Bounds: func(env any, idx []int64) (int64, int64) {
			e := env.(*budgetEnv)
			return e.rowPtr[idx[0]], e.rowPtr[idx[0]+1]
		},
		Reduce: loopnest.SumInt64(),
		Body:   body,
	}
	if withSlice {
		col.Slice = func(env any, idx []int64, iv, hi int64, acc any, rt loopnest.SliceRT) int64 {
			for iv < hi {
				if rt.Aborted() {
					return iv
				}
				b := rt.Budget()
				r := *b
				if r <= 0 {
					r = rt.Chunk()
				}
				n := min(r, hi-iv)
				body(env, idx, iv, iv+n, acc)
				iv += n
				r -= n
				*b = r
				if r == 0 && iv < hi {
					*b = rt.Chunk()
					if rt.Poll() {
						return iv
					}
				}
			}
			return iv
		}
	}
	row := &loopnest.Loop{
		Name:     "row",
		Bounds:   func(env any, _ []int64) (int64, int64) { return 0, int64(len(env.(*budgetEnv).out)) },
		Children: []*loopnest.Loop{col},
		Post: func(env any, idx []int64, _ any, children []any) {
			e := env.(*budgetEnv)
			e.out[idx[0]] = *children[0].(*int64)
			e.posts[idx[0]].Add(1)
		},
	}
	return &loopnest.Nest{Name: "budget", Root: row}
}

// TestBudgetEdgesExactlyOnce runs the budget-edge nest under every source
// shape, both promotion modes, and both leaf drivers, requiring the serial
// elision's output and every (i, j) and every row tail executed exactly
// once. Under a never-firing source, the poll count must be the one the
// rule predicts: the budget runs out after every chunk of units, and each
// time it does, a poll follows, except after the run's final unit, where
// nothing is left to promote. That is ⌊(units − 1) / chunk⌋ polls.
func TestBudgetEdgesExactlyOnce(t *testing.T) {
	type source struct {
		name string
		mk   func() pulse.Source
	}
	sources := []source{
		{"always", func() pulse.Source { return pulse.NewAlways() }},
		{"never", func() pulse.Source { return pulse.NewNever() }},
	}
	for n := int64(1); n <= 5; n++ {
		sources = append(sources, source{fmt.Sprintf("every%d", n), func() pulse.Source { return pulse.NewEveryN(n) }})
	}
	want := newBudgetEnv(10)
	MustCompile(budgetNest(false), Options{}).RunSeq(want)
	for _, withSlice := range []bool{false, true} {
		for _, mode := range []Mode{ModeHBC, ModeTPAL} {
			for _, chunk := range []int64{1, 2, 3, 4} {
				for _, s := range sources {
					name := fmt.Sprintf("slice=%v/%v/chunk%d/%s", withSlice, mode, chunk, s.name)
					t.Run(name, func(t *testing.T) {
						p := MustCompile(budgetNest(withSlice), Options{
							Mode:  mode,
							Chunk: ChunkPolicy{Kind: ChunkStatic, Size: chunk},
						})
						env := newBudgetEnv(10)
						src := s.mk()
						runWith(t, p, src, 2, env)
						int64sEqual(t, env.out, want.out, name)
						for j := range env.visits {
							if v := env.visits[j].Load(); v != 1 {
								t.Fatalf("nonzero %d executed %d times", j, v)
							}
						}
						for i := range env.posts {
							if v := env.posts[i].Load(); v != 1 {
								t.Fatalf("row %d tail ran %d times", i, v)
							}
						}
						if s.name != "never" {
							return
						}
						if got, rule := src.Stats().Polls, (env.units()-1)/chunk; got != rule {
							t.Fatalf("polls = %d, the rule predicts %d (%d units, chunk %d)", got, rule, env.units(), chunk)
						}
					})
				}
			}
		}
	}
}
