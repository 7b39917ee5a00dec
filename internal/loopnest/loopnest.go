// Package loopnest defines the declarative intermediate representation of
// nested DOALL loops consumed by the heartbeat compiler.
//
// It plays the role of HBC's front-end: where the paper's clang extension
// recognizes OpenMP `parallel for` pragmas and emits LLVM IR metadata, a Go
// program states its loop nest directly as a tree of Loop values — the
// iteration bounds, the leaf bodies, the per-iteration pre/tail work of
// interior loops, and any reductions. Everything HBC's front-end extracts
// from pragmas is present in this structure; the middle-end analog
// (package core) compiles it into loop-slice tasks, leftover tasks and LST
// contexts.
package loopnest

import (
	"errors"
	"fmt"
)

// Bounds computes the iteration space [lo, hi) of a loop. idx holds the
// current induction-variable values of all enclosing loops, outermost first
// (len(idx) == the loop's nesting level), so inner bounds may depend on
// outer indices — e.g. spmv's column loop ranges over
// rowPtr[idx[0]]..rowPtr[idx[0]+1].
type Bounds func(env any, idx []int64) (lo, hi int64)

// Body executes iterations [lo, hi) of a leaf loop. idx holds enclosing
// indices as in Bounds. acc is the accumulator of the nearest enclosing
// reduction scope (the loop's own if it declares a Reduce, otherwise the
// closest reducing ancestor's), or nil if none. The runtime chooses the
// chunk [lo, hi); bodies must not retain idx or acc beyond the call.
type Body func(env any, idx []int64, lo, hi int64, acc any)

// Hook runs per-iteration work of an interior loop before its children.
// idx includes the loop's own induction variable as its last element. acc is
// as in Body.
type Hook func(env any, idx []int64, acc any)

// PostHook runs the tail work of an interior loop's iteration, after all its
// children completed for that iteration — e.g. spmv's `out[i] = result`.
// children[k] is child k's accumulator for this iteration (nil for children
// without a Reduce). acc is as in Body.
type PostHook func(env any, idx []int64, acc any, children []any)

// SliceRT is the runtime interface handed to a Slice (see Slice). It serves
// one loop and exposes exactly the per-task state the chunking
// transformation needs — the private iteration budget R (which transfers
// across invocations within a task and across the levels of a chain), the
// chunk size, the heartbeat/cancellation polls, and, for interior slices,
// the runtimes of the children, their accumulators and the stop record.
// The runtime passes a pooled implementation; the slice must not retain it
// beyond the call.
//
// Acc and Stop name a loop by its level on the runtime's spend path: the
// loop the runtime serves, its last child, that child's last child, and so
// on down to the leaf whose budget R is. Below a loop with one child that
// is simply the chain; child k of a loop with several is reached through
// Child(k).
type SliceRT interface {
	// Budget returns the private budget counter R the slice spends from.
	// The pointer is stable for the call; the slice reads the residue on
	// entry and leaves the remainder in it when it returns (a generated
	// slice keeps R in a local in between), so a partially finished chunk
	// carries into the task's next invocation (chunk-size transferring,
	// paper §3.2). R <= 0 means a chunk must be drawn before spending; R
	// is zero only when a chunk ran out whose poll is still to be taken.
	Budget() *int64
	// Chunk returns the next chunk size for R. Slices pass the iterations
	// left in their invocation after the current one (hi - iv); the
	// runtime ignores it today, since Adaptive Chunking and a fixed size
	// depend only on the worker and leaf. The parameter is kept so that
	// emitted kernel packages (gen/kernels) stay byte-identical.
	Chunk(remaining int64) int64
	// Poll checks the heartbeat source at a promotion-ready point. A true
	// return means a heartbeat arrived: the slice must return its next
	// unstarted iteration so the runtime can run the promotion handler.
	Poll() bool
	// Aborted reports run cancellation. Slices check it wherever they draw
	// a chunk: before a draw at a chunk start, and with the poll after a
	// draw at a leaf's chunk boundary or an interior latch. A chunk carried
	// into a leaf from the enclosing iteration was checked where it was
	// drawn, so after an abort a slice spends at most the chunk in flight.
	Aborted() bool
	// Child returns the runtime serving child k of the interior loop this
	// runtime serves. An interior slice hands it to child k's slice. The
	// last child spends the same R, so a slice may pass its own runtime to
	// it instead.
	Child(k int) SliceRT
	// Acc returns the runtime's accumulator for invocations of the loop at
	// level below an interior slice (nil when that loop has no Reduce).
	// The slice fetches it once per entry, resets it before each child
	// invocation, and accumulates into it directly: a promotion may hand
	// it to a leftover task, and the next entry gets a fresh one.
	Acc(level int) any
	// Stop records, on the cold path, that the invocation of the loop at
	// level — below an interior slice — returned early at iv within its
	// [lo, hi). Each interior slice on the way up records the child it
	// stopped in, innermost first, then returns its own in-flight
	// iteration; the stopped child's position is how the runtime knows
	// which siblings of the iteration are still to run.
	Stop(level int, lo, iv, hi int64)
}

// Slice is the task entry of a loop: a function that executes whole
// iterations of [iv, hi) and returns the next unstarted one. It owns the
// loop's chunking and latch logic. The heartbeat executor drives every
// loop through one: a loop without a Slice gets one at Compile, built from
// its Body or children, hooks and Reduce; a generated kernel supplies
// monomorphic ones.
//
// A leaf Slice runs [iv, hi) in chunks of the budget R, polling rt at
// every chunk boundary before hi. A chunk that ends exactly at hi does not
// poll: the slice leaves R at zero and returns hi, and the caller places
// that poll.
//
// An interior Slice (every child of its loop has a Slice) runs each
// iteration inline: Pre; then for each child in order its bounds, its
// accumulator reset, a direct call of its slice with rt.Child(k), and —
// for a child other than the last that left its R at zero at its hi — the
// poll that child owes, refilling its R through its runtime first; then
// Post. Its latch spends R like the children do: an iteration whose
// children all ran nothing debits one unit; a last child that ended its
// chunk at its own hi leaves R at zero, which the latch owes a poll. When
// R is zero with iterations left, the latch refills R through rt.Chunk
// and polls; when R is zero at hi, the slice returns hi and leaves that
// poll to its caller. If a child's slice returns before its hi (a beat or
// cancellation deeper down), or a child's owed poll detects a beat, the
// slice calls rt.Stop for that child and returns its own in-flight
// iteration; the runtime finishes that iteration.
//
// So a return below hi with no Stop recorded means the slice stopped at a
// promotion-ready point of its own (rt.Poll returned true) or observed
// rt.Aborted; with a Stop recorded, it stopped inside an iteration.
//
// env, idx, and acc follow the Body and Hook contracts. Leaves still
// define Body and interior loops their children and hooks: the serial
// elision (RunSeq/RunStatic) and the runtime's finishing of a stopped
// iteration use them.
type Slice func(env any, idx []int64, iv, hi int64, acc any, rt SliceRT) int64

// Fault is the panic value of a Slice that runs the code of loops below
// its own inline and recovered a panic there: it names the loop whose code
// panicked, so the runtime attributes the fault to that loop and not to
// the one whose slice it entered. A slice without it is attributed to the
// loop whose slice panicked.
type Fault struct {
	// Level is the nest level of the faulting loop, on the spend path of
	// the loop whose slice recovered it.
	Level int
	// Indices are the induction variables in flight, outermost first, up
	// to the faulting loop's own, or up to the enclosing loop's when the
	// panic came from the faulting loop's bounds.
	Indices []int64
	// Value is the recovered panic value.
	Value any
}

// Reduction declares that a loop combines values across its iterations.
// Heartbeat promotions may split the loop's range across tasks; each task
// then accumulates into a private accumulator and the runtime merges them at
// the join, so Merge must be associative and commutative with respect to
// Fresh's identity.
type Reduction struct {
	// Fresh allocates a new identity accumulator.
	Fresh func() any
	// Reset returns an existing accumulator to the identity, letting the
	// runtime reuse one allocation per task per loop across iterations of
	// the parent. Optional; when nil, Fresh is called per invocation.
	Reset func(acc any)
	// Merge folds from into into. from is never used again afterwards.
	Merge func(into, from any)
}

// Loop describes one DOALL loop of a nest. Exactly one of Body (leaf) or
// Children (interior) must be set.
type Loop struct {
	// Name labels the loop in statistics and error messages.
	Name string
	// Bounds gives the loop's iteration space. Required.
	Bounds Bounds
	// Body is the leaf computation. Set only on leaves.
	Body Body
	// Slice, if non-nil, is the loop's task entry, typically a generated
	// monomorphic one; Compile builds one for a loop without it. On a
	// leaf, Body is still required (the serial drivers use it); on an
	// interior loop, every child must have a Slice too.
	Slice Slice
	// Children are the directly nested DOALL loops, executed sequentially
	// within each iteration. Set only on interior loops.
	Children []*Loop
	// Pre runs before the children in each iteration. Interior loops only.
	Pre Hook
	// Post runs the iteration's tail work after the children. Interior only.
	Post PostHook
	// Reduce, if non-nil, declares a reduction across this loop's
	// iterations.
	Reduce *Reduction
}

// Leaf reports whether the loop has no nested DOALL children.
func (l *Loop) Leaf() bool { return len(l.Children) == 0 }

// Nest is a whole loop-nesting tree with a single root DOALL loop, the unit
// the heartbeat compiler consumes.
type Nest struct {
	// Name labels the nest in reports.
	Name string
	// Root is the outermost DOALL loop.
	Root *Loop
}

// Validation errors returned by Nest.Validate.
var (
	ErrNoRoot     = errors.New("loopnest: nest has no root loop")
	ErrNoBounds   = errors.New("loopnest: loop has no Bounds")
	ErrLeafShape  = errors.New("loopnest: loop must have exactly one of Body or Children")
	ErrLeafHooks  = errors.New("loopnest: leaf loop must not have Pre/Post hooks")
	ErrBadReduce  = errors.New("loopnest: Reduce must define Fresh and Merge")
	ErrSharedLoop = errors.New("loopnest: loop appears more than once in the nest")
	ErrTooDeep    = errors.New("loopnest: nest exceeds maximum depth")
	ErrNilChild   = errors.New("loopnest: nil child loop")
	ErrSliceShape = errors.New("loopnest: an interior Slice needs a Slice on every child")
)

// MaxDepth bounds the nesting depth the runtime supports. The paper's
// benchmarks nest at most four levels (Fig. 5); eight leaves headroom.
const MaxDepth = 8

// Validate checks the structural invariants of the nest.
func (n *Nest) Validate() error {
	if n.Root == nil {
		return ErrNoRoot
	}
	seen := map[*Loop]bool{}
	var walk func(l *Loop, depth int) error
	walk = func(l *Loop, depth int) error {
		if l == nil {
			return ErrNilChild
		}
		if depth >= MaxDepth {
			return fmt.Errorf("%w (%d)", ErrTooDeep, MaxDepth)
		}
		hasBody := l.Body != nil
		hasKids := len(l.Children) > 0
		var err error
		switch {
		case seen[l]:
			err = ErrSharedLoop
		case l.Bounds == nil:
			err = ErrNoBounds
		case hasBody == hasKids:
			err = ErrLeafShape
		case hasBody && (l.Pre != nil || l.Post != nil):
			err = ErrLeafHooks
		case l.Slice != nil && !childrenSliced(l):
			err = ErrSliceShape
		case l.Reduce != nil && (l.Reduce.Fresh == nil || l.Reduce.Merge == nil):
			err = ErrBadReduce
		}
		if err != nil {
			return fmt.Errorf("%w: %q", err, l.Name)
		}
		seen[l] = true
		for _, c := range l.Children {
			if err := walk(c, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(n.Root, 0)
}

// childrenSliced reports whether every child of l has a Slice.
func childrenSliced(l *Loop) bool {
	for _, c := range l.Children {
		if c == nil || c.Slice == nil {
			return false
		}
	}
	return true
}

// Depth returns the number of levels in the nest (1 for a single loop).
// The nest must be valid.
func (n *Nest) Depth() int {
	var d func(l *Loop) int
	d = func(l *Loop) int {
		best := 0
		for _, c := range l.Children {
			if k := d(c); k > best {
				best = k
			}
		}
		return best + 1
	}
	if n.Root == nil {
		return 0
	}
	return d(n.Root)
}

// CountLoops returns the number of loops in the nest.
func (n *Nest) CountLoops() int {
	var c func(l *Loop) int
	c = func(l *Loop) int {
		total := 1
		for _, k := range l.Children {
			total += c(k)
		}
		return total
	}
	if n.Root == nil {
		return 0
	}
	return c(n.Root)
}

// CountLeaves returns the number of leaf loops in the nest.
func (n *Nest) CountLeaves() int {
	var c func(l *Loop) int
	c = func(l *Loop) int {
		if l.Leaf() {
			return 1
		}
		total := 0
		for _, k := range l.Children {
			total += c(k)
		}
		return total
	}
	if n.Root == nil {
		return 0
	}
	return c(n.Root)
}
