package codegen

import (
	"testing"

	"hbc/gen"
	_ "hbc/gen/kernels"
)

// staticRT is a SliceRT with a fixed chunk of 64 and no heartbeat or
// cancellation: the promotion-free harness for driving a generated slice
// task directly, chunk refills and budget transfer included.
type staticRT struct{ budget int64 }

func (r *staticRT) Budget() *int64 { return &r.budget }
func (r *staticRT) Chunk() int64   { return 64 }
func (r *staticRT) Poll() bool     { return false }
func (r *staticRT) Aborted() bool  { return false }

// firstSliceTask returns one full pass of a generated kernel's first leaf
// slice task — the function the heartbeat executor calls on the hot path —
// over the outermost iteration of every enclosing loop.
func firstSliceTask(tb testing.TB, name string) func() {
	gk, ok := gen.Lookup(name)
	if !ok {
		tb.Fatalf("kernel %s not registered", name)
	}
	env := gk.NewEnv()
	l := gk.Nest(env).Root
	idx := make([]int64, 0, 8)
	for !l.Leaf() {
		lo, hi := l.Bounds(env, idx)
		if lo >= hi {
			tb.Fatalf("%s: empty interior loop %s", name, l.Name)
		}
		idx = append(idx, lo)
		l = l.Children[0]
	}
	if l.Slice == nil {
		tb.Fatalf("%s: leaf %s has no slice task", name, l.Name)
	}
	lo, hi := l.Bounds(env, idx)
	if lo >= hi {
		tb.Fatalf("%s: empty leaf loop %s", name, l.Name)
	}
	var acc any
	if l.Reduce != nil {
		acc = l.Reduce.Fresh()
	}
	rt := &staticRT{}
	return func() {
		for iv := lo; iv < hi; {
			iv = l.Slice(env, idx, iv, hi, acc, rt)
		}
	}
}

// TestSliceTasksAllocFree is the generated backend's allocation gate:
// steady-state slice execution touches no heap, on every checked-in
// kernel.
func TestSliceTasksAllocFree(t *testing.T) {
	for _, name := range gen.Kernels() {
		if n := testing.AllocsPerRun(20, firstSliceTask(t, name)); n != 0 {
			t.Errorf("%s: slice task allocates %v objects/op, want 0", name, n)
		}
	}
}

func BenchmarkSliceTask(b *testing.B) {
	for _, name := range gen.Kernels() {
		b.Run(name, func(b *testing.B) {
			run := firstSliceTask(b, name)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}
