package core

import (
	"sync/atomic"
	"time"

	"testing"

	"hbc/internal/loopnest"
	"hbc/internal/pulse"
	"hbc/internal/sched"
)

// sliceTestEnv is a tiny spmv-shaped workload for the monomorphic-entry
// tests: out[i] collects a reduction over an irregular inner range.
type sliceTestEnv struct {
	rowLen []int64
	val    []float64
	out    []float64
}

func newSliceTestEnv(rows int64) *sliceTestEnv {
	e := &sliceTestEnv{
		rowLen: make([]int64, rows),
		out:    make([]float64, rows),
	}
	var nnz int64
	for i := int64(0); i < rows; i++ {
		e.rowLen[i] = i%13 + 1
		nnz += e.rowLen[i]
	}
	e.val = make([]float64, nnz*0+rows*13) // dense stride-13 backing
	for i := range e.val {
		e.val[i] = float64(i%7) + 0.5
	}
	return e
}

func (e *sliceTestEnv) reset() {
	for i := range e.out {
		e.out[i] = 0
	}
}

// sliceTestNest builds the two-level nest. When withSlice is set, the leaf
// additionally carries a monomorphic Slice entry on the emitted template
// (templateLeafSlice); calls counts its invocations.
func sliceTestNest(withSlice bool, calls *atomic.Int64) *loopnest.Nest {
	inner := &loopnest.Loop{
		Name: "j",
		Bounds: func(env any, idx []int64) (int64, int64) {
			e := env.(*sliceTestEnv)
			return 0, e.rowLen[idx[0]]
		},
		Body: func(env any, idx []int64, lo, hi int64, acc any) {
			e := env.(*sliceTestEnv)
			a := acc.(*float64)
			base := idx[0] * 13
			for j := lo; j < hi; j++ {
				*a += e.val[base+j]
			}
		},
		Reduce: loopnest.SumFloat64(),
	}
	if withSlice {
		sl := templateLeafSlice(inner.Body)
		inner.Slice = func(env any, idx []int64, iv, hi int64, acc any, rt loopnest.SliceRT) int64 {
			calls.Add(1)
			return sl(env, idx, iv, hi, acc, rt)
		}
	}
	root := &loopnest.Loop{
		Name:     "i",
		Bounds:   func(env any, _ []int64) (int64, int64) { return 0, int64(len(env.(*sliceTestEnv).out)) },
		Children: []*loopnest.Loop{inner},
		Post: func(env any, idx []int64, _ any, children []any) {
			e := env.(*sliceTestEnv)
			e.out[idx[0]] = *children[0].(*float64)
		},
	}
	return &loopnest.Nest{Name: "slicetest", Root: root}
}

// TestSliceEntryMatchesBodyPath runs the same nest through the closure path
// and the slice path under a promotion-free deterministic configuration and
// requires bit-identical outputs.
func TestSliceEntryMatchesBodyPath(t *testing.T) {
	const rows = 500
	var calls atomic.Int64
	run := func(withSlice bool) []float64 {
		e := newSliceTestEnv(rows)
		p, err := Compile(sliceTestNest(withSlice, &calls), Options{})
		if err != nil {
			t.Fatal(err)
		}
		team := sched.NewTeam(1)
		defer team.Close()
		x := NewExec(p, team, pulse.NewNever(), time.Millisecond, e)
		x.Start()
		defer x.Stop()
		x.Run()
		return append([]float64(nil), e.out...)
	}
	want := run(false)
	calls.Store(0)
	got := run(true)
	if calls.Load() == 0 {
		t.Fatal("slice entry was never invoked")
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("out[%d] = %v via slice, %v via body", i, got[i], want[i])
		}
	}
}

// TestSliceEntryPromotes drives the slice path with per-iteration polling on
// a real timer source and requires both correct results and promotions
// flowing from the slice's poll returns.
func TestSliceEntryPromotes(t *testing.T) {
	const rows = 4000
	var calls atomic.Int64
	e := newSliceTestEnv(rows)
	p, err := Compile(sliceTestNest(true, &calls), Options{StaticChunk: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, rows)
	p.RunSeq(e)
	copy(want, e.out)
	e.reset()

	team := sched.NewTeam(4)
	defer team.Close()
	x := NewExec(p, team, pulse.NewTimer(), 20*time.Microsecond, e)
	x.Start()
	defer x.Stop()
	for r := 0; r < 50 && x.Stats().Promotions() == 0; r++ {
		e.reset()
		x.Run()
	}
	if x.Stats().Promotions() == 0 {
		t.Skip("no promotions observed; machine too fast for the timer source")
	}
	for i := range want {
		if e.out[i] != want[i] {
			t.Fatalf("out[%d] = %v parallel, %v serial", i, e.out[i], want[i])
		}
	}
}

// TestSliceSerialDriversUseBody checks that RunSeq ignores the Slice entry
// (the serial elision must stay driver-free).
func TestSliceSerialDriversUseBody(t *testing.T) {
	var calls atomic.Int64
	e := newSliceTestEnv(64)
	p, err := Compile(sliceTestNest(true, &calls), Options{})
	if err != nil {
		t.Fatal(err)
	}
	p.RunSeq(e)
	if calls.Load() != 0 {
		t.Fatalf("RunSeq invoked the slice entry %d times, want 0", calls.Load())
	}
}
