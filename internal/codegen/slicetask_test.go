package codegen

import (
	"testing"

	"hbc/gen"
	_ "hbc/gen/kernels"
)

// staticRT is a SliceRT with a fixed chunk of 64 and no heartbeat or
// cancellation: the promotion-free harness for driving a generated slice
// task directly, chunk refills, budget transfer and child accumulators
// included. accs holds one accumulator per level, built before timing.
type staticRT struct {
	budget int64
	accs   []any
}

func (r *staticRT) Budget() *int64                { return &r.budget }
func (r *staticRT) Chunk(int64) int64             { return 64 }
func (r *staticRT) Poll() bool                    { return false }
func (r *staticRT) Aborted() bool                 { return false }
func (r *staticRT) Acc(level int) any             { return r.accs[level] }
func (r *staticRT) Stop(int, int64, int64, int64) {}

// sliceEntry returns one full pass of a generated kernel's slice task at a
// nest level — the function the heartbeat executor calls on the hot path —
// over the outermost iteration of every enclosing loop: level 0 is the
// root's entry (interior on spmv, powersum and escape), and a level past
// the leaf is clamped to the leaf.
func sliceEntry(tb testing.TB, name string, level int) func() {
	gk, ok := gen.Lookup(name)
	if !ok {
		tb.Fatalf("kernel %s not registered", name)
	}
	env := gk.NewEnv()
	root := gk.Nest(env).Root
	rt := &staticRT{}
	for c := root; c != nil; {
		var acc any
		if c.Reduce != nil {
			acc = c.Reduce.Fresh()
		}
		rt.accs = append(rt.accs, acc)
		if c.Leaf() {
			break
		}
		c = c.Children[0]
	}
	l := root
	idx := make([]int64, 0, 8)
	for !l.Leaf() && len(idx) < level {
		lo, hi := l.Bounds(env, idx)
		if lo >= hi {
			tb.Fatalf("%s: empty interior loop %s", name, l.Name)
		}
		idx = append(idx, lo)
		l = l.Children[0]
	}
	if l.Slice == nil {
		tb.Fatalf("%s: loop %s has no slice task", name, l.Name)
	}
	lo, hi := l.Bounds(env, idx)
	if lo >= hi {
		tb.Fatalf("%s: empty loop %s", name, l.Name)
	}
	acc := rt.accs[len(idx)]
	return func() {
		for iv := lo; iv < hi; {
			iv = l.Slice(env, idx, iv, hi, acc, rt)
		}
	}
}

// sliceEntries are the two entries the allocation gate and the benchmark
// drive: the root's slice task and the first leaf's.
var sliceEntries = []struct {
	name  string
	level int
}{{"root", 0}, {"leaf", 8}}

// TestSliceTasksAllocFree is the generated backend's allocation gate:
// steady-state slice execution touches no heap, on every checked-in
// kernel, through both the root entry and the first leaf entry.
func TestSliceTasksAllocFree(t *testing.T) {
	for _, name := range gen.Kernels() {
		for _, se := range sliceEntries {
			if n := testing.AllocsPerRun(20, sliceEntry(t, name, se.level)); n != 0 {
				t.Errorf("%s: %s slice task allocates %v objects/op, want 0", name, se.name, n)
			}
		}
	}
}

func BenchmarkSliceTask(b *testing.B) {
	for _, name := range gen.Kernels() {
		for _, se := range sliceEntries {
			b.Run(name+"/"+se.name, func(b *testing.B) {
				run := sliceEntry(b, name, se.level)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					run()
				}
			})
		}
	}
}
