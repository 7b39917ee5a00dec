package codegen

import (
	"fmt"
	"math"
	"testing"

	"hbc"
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
func (r *staticRT) Child(int) hbc.SliceRT         { return r }
func (r *staticRT) Acc(level int) any             { return r.accs[level] }
func (r *staticRT) Stop(int, int64, int64, int64) {}

// entry is one slice entry of a generated kernel: the loop at a nest
// level over the outermost iteration of every enclosing loop, with one
// fresh accumulator per level of the nest. Level 0 is the root's entry
// (interior on spmv, powersum and escape), and a level past the leaf is
// clamped to the leaf.
type entry struct {
	env    gen.Env
	l      *hbc.Loop
	idx    []int64
	lo, hi int64
	accs   []any
}

func newEntry(tb testing.TB, name string, level int, env gen.Env) *entry {
	tb.Helper()
	gk, ok := gen.Lookup(name)
	if !ok {
		tb.Fatalf("kernel %s not registered", name)
	}
	root := gk.Nest(env).Root
	e := &entry{env: env, l: root, idx: make([]int64, 0, 8)}
	for c := root; ; c = c.Children[0] {
		var acc any
		if c.Reduce != nil {
			acc = c.Reduce.Fresh()
		}
		e.accs = append(e.accs, acc)
		if c.Leaf() {
			break
		}
	}
	for !e.l.Leaf() && len(e.idx) < level {
		lo, hi := e.l.Bounds(env, e.idx)
		if lo >= hi {
			tb.Fatalf("%s: empty interior loop %s", name, e.l.Name)
		}
		e.idx = append(e.idx, lo)
		e.l = e.l.Children[0]
	}
	if e.l.Slice == nil {
		tb.Fatalf("%s: loop %s has no slice task", name, e.l.Name)
	}
	e.lo, e.hi = e.l.Bounds(env, e.idx)
	if e.lo >= e.hi {
		tb.Fatalf("%s: empty loop %s", name, e.l.Name)
	}
	return e
}

// acc is the accumulator the entry's loop writes, nil without a Reduce.
func (e *entry) acc() any { return e.accs[len(e.idx)] }

// sliceEntry returns one full pass of a generated kernel's slice task at a
// nest level — the function the heartbeat executor calls on the hot path.
func sliceEntry(tb testing.TB, name string, level int) func() {
	gk, ok := gen.Lookup(name)
	if !ok {
		tb.Fatalf("kernel %s not registered", name)
	}
	e := newEntry(tb, name, level, gk.NewEnv())
	rt := &staticRT{accs: e.accs}
	acc := e.acc()
	return func() {
		for iv := e.lo; iv < e.hi; {
			iv = e.l.Slice(e.env, e.idx, iv, e.hi, acc, rt)
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

// protoChunk is protoRT's chunk: small, so a pass crosses many chunk
// boundaries and row ends.
const protoChunk = 5

// protoRT is the SliceRT of TestSliceProtocol: a fixed chunk of
// protoChunk, a heartbeat at every chunk boundary when beats is set, and
// cancellation that turns on once abortAfter Chunk calls were made (at
// once when 0, never when negative). It counts the draws, and the draws
// and polls made while the abort was already on, and records stops by
// level for the harness to finish.
type protoRT struct {
	budget     int64
	accs       []any
	beats      bool
	abortAfter int
	draws      int
	lateDraws  int
	latePolls  int
	stops      map[int]protoStop
}

// protoStop is a stopped invocation's next unstarted iteration and hi.
type protoStop struct{ iv, hi int64 }

func (r *protoRT) Budget() *int64 { return &r.budget }

func (r *protoRT) Chunk(int64) int64 {
	if r.Aborted() {
		r.lateDraws++
	}
	r.draws++
	return protoChunk
}

func (r *protoRT) Poll() bool {
	if r.Aborted() {
		r.latePolls++
	}
	return r.beats
}

func (r *protoRT) Aborted() bool                   { return r.abortAfter >= 0 && r.draws >= r.abortAfter }
func (r *protoRT) Child(int) hbc.SliceRT           { return r }
func (r *protoRT) Acc(level int) any               { return r.accs[level] }
func (r *protoRT) Stop(level int, _, iv, hi int64) { r.stops[level] = protoStop{iv, hi} }

// protoEntry is an entry driven through a protoRT.
type protoEntry struct {
	*entry
	rt *protoRT
}

func newProtoEntry(t *testing.T, name string, level int, env gen.Env) *protoEntry {
	t.Helper()
	e := newEntry(t, name, level, env)
	return &protoEntry{e, &protoRT{accs: e.accs, abortAfter: -1, stops: map[int]protoStop{}}}
}

// drive runs l's slice over [iv, hi) at idx to hi under beats, the way
// the runtime does minus promotion: it re-enters from the iteration each
// call returns, and finishes an iteration a nested stop left in flight.
func (p *protoEntry) drive(t *testing.T, l *hbc.Loop, idx []int64, iv, hi int64, acc any) {
	for iv < hi {
		iv = l.Slice(p.env, idx, iv, hi, acc, p.rt)
		// A return below hi is at a beat, whose chunk boundary or latch
		// drew a whole chunk first; one at hi leaves what its chunk kept.
		if r := p.rt.budget; iv < hi && r != protoChunk || r < 0 || r > protoChunk {
			t.Fatalf("%s: stored R = %d at iv %d of [.., %d), want %d below hi and [0, %d] at hi",
				l.Name, r, iv, hi, protoChunk, protoChunk)
		}
		if _, ok := p.rt.stops[len(idx)+1]; ok {
			p.finish(t, l, idx, iv, acc)
			iv++
		}
	}
}

// finish completes l's in-flight iteration iv after a stop in its child:
// the stopped loops below are driven to their hi, innermost first, then
// the iteration's tail runs.
func (p *protoEntry) finish(t *testing.T, l *hbc.Loop, idx []int64, iv int64, acc any) {
	lvl := len(idx) + 1
	s := p.rt.stops[lvl]
	delete(p.rt.stops, lvl)
	cidx := append(idx[:len(idx):len(idx)], iv)
	c := l.Children[0]
	cacc := p.rt.accs[lvl]
	vis := acc
	if cacc != nil {
		vis = cacc
	}
	next := s.iv
	if _, ok := p.rt.stops[lvl+1]; ok {
		p.finish(t, c, cidx, s.iv, vis)
		next++
	}
	p.drive(t, c, cidx, next, s.hi, vis)
	if l.Post != nil {
		l.Post(p.env, cidx, acc, []any{cacc})
	}
}

// units is the budget one pass of l over [lo, hi) at idx spends: one unit
// per leaf iteration, and one per interior iteration whose nested loop
// ran nothing.
func units(env gen.Env, l *hbc.Loop, idx []int64, lo, hi int64) int64 {
	if l.Leaf() {
		return hi - lo
	}
	var u int64
	for i := lo; i < hi; i++ {
		cidx := append(idx[:len(idx):len(idx)], i)
		c := l.Children[0]
		clo, chi := c.Bounds(env, cidx)
		u += max(units(env, c, cidx, clo, chi), 1)
	}
	return u
}

// reference runs the entry's loop over [lo, end) serially on its
// environment: the leaf's Body (bodyNestK), or RunSerial for an interior
// root over its whole range. It returns the live-out, nil without a
// Reduce.
func (p *protoEntry) reference(t *testing.T, gk *gen.Kernel, end int64) any {
	t.Helper()
	if !p.l.Leaf() {
		if len(p.idx) > 0 || end != p.hi {
			t.Fatalf("no serial reference for a partial interior pass")
		}
		gk.RunSerial(p.env)
		return nil
	}
	var acc any
	if p.l.Reduce != nil {
		acc = p.l.Reduce.Fresh()
	}
	p.l.Body(p.env, p.idx, p.lo, end, acc)
	return acc
}

// sameLiveOut requires two *float64 live-outs equal bit for bit.
func sameLiveOut(t *testing.T, got, want any, label string) {
	t.Helper()
	if want == nil {
		return
	}
	g, w := *got.(*float64), *want.(*float64)
	if math.Float64bits(g) != math.Float64bits(w) {
		t.Fatalf("%s: live-out %v, bodyNestK over the same range %v", label, g, w)
	}
}

// TestSliceProtocol pins the emitted slice-task protocol on every
// registered kernel, through the root entry and the first leaf entry:
//
//   - with a heartbeat at every chunk boundary, re-entering from each
//     returned iteration until hi (and finishing stopped iterations)
//     leaves the live-out and the environment bit-identical to the serial
//     code over the same range, so the slice writes its register-resident
//     live-out back on every return path; the stored R stays within one
//     chunk and ends at the chunk arithmetic: draws × chunk − units spent;
//   - once Aborted turns true, the slice returns at its next chunk draw,
//     never later: it polls at most once more, draws only at a chunk
//     boundary or latch that polls (a draw at a chunk start checks
//     first), and spends nothing after that draw; a leaf's live-out then
//     still equals bodyNestK over the iterations it ran.
func TestSliceProtocol(t *testing.T) {
	for _, name := range gen.Kernels() {
		gk, _ := gen.Lookup(name)
		k, _ := loadKernel(t, name)
		for _, se := range sliceEntries {
			label := name + "/" + se.name
			env, ref := gk.NewEnv(), gk.NewEnv()
			seedFloats(t, k, 7, env, ref)
			p := newProtoEntry(t, name, se.level, env)
			p.rt.beats = true
			p.drive(t, p.l, p.idx, p.lo, p.hi, p.acc())
			want := newProtoEntry(t, name, se.level, ref).reference(t, gk, p.hi)
			sameLiveOut(t, p.acc(), want, label)
			compareEnvs(t, k, env, ref, 0, label)
			u := units(env, p.l, p.idx, p.lo, p.hi)
			if got, rule := p.rt.budget, int64(p.rt.draws)*protoChunk-u; got != rule {
				t.Fatalf("%s: stored R = %d, the chunk arithmetic gives %d (%d draws, %d units)",
					label, got, rule, p.rt.draws, u)
			}

			// Abort at the start, in the first chunks, and at four draws in
			// a row mid-pass, so that some turn on at a latch.
			mid := p.rt.draws / 2
			for _, after := range []int{0, 1, 2, 3, mid, mid + 1, mid + 2, mid + 3} {
				label := fmt.Sprintf("%s/abort-after-%d", label, after)
				env, ref := gk.NewEnv(), gk.NewEnv()
				seedFloats(t, k, 7, env, ref)
				p := newProtoEntry(t, name, se.level, env)
				p.rt.abortAfter = after
				iv := p.l.Slice(env, p.idx, p.lo, p.hi, p.acc(), p.rt)
				if rt := p.rt; rt.latePolls > 1 || rt.lateDraws > rt.latePolls {
					t.Fatalf("%s: %d chunks drawn and %d polls taken after the abort, want at most one draw, followed by its poll",
						label, rt.lateDraws, rt.latePolls)
				}
				if iv == p.hi {
					continue // the pass ended before its next draw
				}
				if !p.rt.Aborted() {
					t.Fatalf("%s: returned %d < hi %d with no heartbeat or abort", label, iv, p.hi)
				}
				// Returned right after a draw (R a whole chunk) or before the
				// one it was about to make (R zero): nothing spent since.
				if r := p.rt.budget; r != 0 && r != protoChunk {
					t.Fatalf("%s: stored R = %d at the abort return, want 0 or %d: the slice spent past the draw that saw the abort",
						label, r, protoChunk)
				}
				if p.l.Leaf() {
					sameLiveOut(t, p.acc(), newProtoEntry(t, name, se.level, ref).reference(t, gk, iv), label)
					compareEnvs(t, k, env, ref, 0, label)
				}
			}
		}
	}
}
