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
// transformation needs — the leaf's private iteration budget R (which
// transfers across invocations of the same leaf within a task), the current
// chunk size, and the heartbeat/cancellation polls — without the generic
// driver's closure frames. The runtime passes a pooled implementation; the
// slice must not retain it beyond the call.
type SliceRT interface {
	// Budget returns the leaf's private budget counter R. The slice reads
	// the residue on entry and writes the remainder back before returning,
	// so a partially finished chunk carries into the task's next invocation
	// of the same leaf (chunk-size transferring, paper §3.2).
	Budget() *int64
	// Chunk returns the chunk size currently in force for this leaf.
	Chunk() int64
	// Poll checks the heartbeat source at a promotion-ready point. A true
	// return means a heartbeat arrived: the slice must store its state and
	// return its induction variable so the runtime can run the promotion
	// handler.
	Poll() bool
	// Aborted reports run cancellation; checked at the same chunk
	// boundaries as Poll.
	Aborted() bool
}

// Slice is the monomorphic task entry of a leaf loop: a specialized
// (typically generated) function that executes iterations of [iv, hi) in
// chunks, polling rt at every chunk boundary before hi, and returns the
// next unstarted iteration. Returning a value < hi means the slice stopped
// at a promotion-ready point (rt.Poll returned true) or observed
// rt.Aborted; the runtime then promotes and re-enters. A chunk that ends
// exactly at hi does not poll: the slice leaves the budget at zero and
// returns hi, and the runtime places that poll (normally at the enclosing
// loop's latch). Unlike Body, a Slice owns the
// whole chunking loop, so the runtime's generic per-chunk driver — and its
// per-call closure frames — stay off the hot path entirely.
//
// env, idx, and acc follow the Body contract. A Slice is an optional fast
// path: the leaf must still define Body, which the serial elision
// (RunSeq/RunStatic) and any non-slice-aware driver keep using.
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
	// Slice, if non-nil, is the leaf's monomorphic task entry: a
	// specialized chunking loop the heartbeat executor calls instead of the
	// generic chunk driver around Body. Leaves only, and Body is still
	// required (the serial drivers use it).
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
	ErrSliceShape = errors.New("loopnest: Slice requires a leaf loop with a Body")
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
		if seen[l] {
			return fmt.Errorf("%w: %q", ErrSharedLoop, l.Name)
		}
		seen[l] = true
		if l.Bounds == nil {
			return fmt.Errorf("%w: %q", ErrNoBounds, l.Name)
		}
		hasBody := l.Body != nil
		hasKids := len(l.Children) > 0
		if hasBody == hasKids {
			return fmt.Errorf("%w: %q", ErrLeafShape, l.Name)
		}
		if hasBody && (l.Pre != nil || l.Post != nil) {
			return fmt.Errorf("%w: %q", ErrLeafHooks, l.Name)
		}
		if l.Slice != nil && !hasBody {
			return fmt.Errorf("%w: %q", ErrSliceShape, l.Name)
		}
		if r := l.Reduce; r != nil && (r.Fresh == nil || r.Merge == nil) {
			return fmt.Errorf("%w: %q", ErrBadReduce, l.Name)
		}
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
