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

// SliceRT is the runtime interface handed to a monomorphic Slice task entry
// (see Slice). It exposes exactly the per-task state the chunking
// transformation needs — the private iteration budget R (which transfers
// across invocations within a task and across the levels of a chain), the
// chunk size, the heartbeat/cancellation polls, and, for interior slices,
// the child accumulators and the stop record — without the generic driver's
// closure frames. The runtime passes a pooled implementation; the slice
// must not retain it beyond the call.
type SliceRT interface {
	// Budget returns the private budget counter R the slice spends from.
	// The pointer is stable for the call; the slice reads the residue on
	// entry and keeps the remainder in it, so a partially finished chunk
	// carries into the task's next invocation (chunk-size transferring,
	// paper §3.2).
	Budget() *int64
	// Chunk returns the next chunk size for R, given the iterations left
	// in the slice's invocation after the current one (hi - iv).
	Chunk(remaining int64) int64
	// Poll checks the heartbeat source at a promotion-ready point. A true
	// return means a heartbeat arrived: the slice must return its next
	// unstarted iteration so the runtime can run the promotion handler.
	Poll() bool
	// Aborted reports run cancellation. Slices check it where a chunk
	// starts and at the top of every interior iteration; a chunk carried
	// into a leaf from the enclosing iteration was checked there.
	Aborted() bool
	// Acc returns the runtime's accumulator for invocations of the loop at
	// the given level below an interior slice (nil when that loop has no
	// Reduce). The slice fetches it once per entry, resets it before each
	// child invocation, and accumulates into it directly: a promotion may
	// hand it to a leftover task, and the next entry gets a fresh one.
	Acc(level int) any
	// Stop records, on the cold path, that the invocation of the loop at
	// level — below an interior slice — returned early at iv within its
	// [lo, hi). Each interior slice on the way up records its child,
	// innermost first, then returns its own in-flight iteration.
	Stop(level int, lo, iv, hi int64)
}

// Slice is the monomorphic task entry of a loop: a specialized (typically
// generated) function that executes whole iterations of [iv, hi) and
// returns the next unstarted one. Unlike Body and the hooks, a Slice owns
// the loop's chunking and latch logic, so the runtime's generic per-chunk
// and per-iteration drivers — and their per-call closure frames — stay off
// the hot path.
//
// A leaf Slice runs [iv, hi) in chunks of the budget R, polling rt at
// every chunk boundary before hi. A chunk that ends exactly at hi does not
// poll: the slice leaves R at zero and returns hi, and the runtime places
// that poll (normally at the enclosing loop's latch).
//
// An interior Slice (a loop with exactly one child, which has a Slice
// itself) runs each iteration inline: Pre; the child's bounds; the child
// accumulator reset (rt.Acc); a direct call of the child's slice; Post.
// Its latch spends R like the generic driver's: an iteration whose child
// ran nothing debits one unit; a child that ended its chunk at its own hi
// leaves R at zero, which the latch owes a poll. When R is zero with
// iterations left, the latch refills R through rt.Chunk and polls; when R
// is zero at hi, the slice returns hi and leaves that poll to the runtime.
// If the child's slice returns before its hi (a beat or cancellation
// deeper down), the slice calls rt.Stop for the child and returns its own
// in-flight iteration; the runtime finishes that iteration.
//
// So a return below hi with no Stop recorded means the slice stopped at a
// promotion-ready point of its own (rt.Poll returned true) or observed
// rt.Aborted; with a Stop recorded, it stopped inside an iteration.
//
// env, idx, and acc follow the Body and Hook contracts. A Slice is an
// optional fast path: leaves still define Body and interior loops their
// children, which the serial elision (RunSeq/RunStatic) and every resume
// path keep using.
type Slice func(env any, idx []int64, iv, hi int64, acc any, rt SliceRT) int64

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
	// Slice, if non-nil, is the loop's monomorphic task entry: a
	// specialized loop the heartbeat executor calls instead of its generic
	// drivers. On a leaf, Body is still required (the serial drivers use
	// it); on an interior loop, the loop must have exactly one child, and
	// that child must have a Slice.
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
	ErrSliceShape = errors.New("loopnest: Slice requires a leaf with a Body or one child with a Slice")
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
		case l.Slice != nil && hasKids && (len(l.Children) != 1 || l.Children[0] == nil || l.Children[0].Slice == nil):
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
