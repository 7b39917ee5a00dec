// Package core is the heartbeat compiler and runtime — the paper's primary
// contribution, reproduced as a library.
//
// Compile plays the role of HBC's middle-end (paper §3): it consumes a
// declarative DOALL loop nest (package loopnest) and produces a Program
// holding the same artifacts the paper's compiler emits into a binary:
//
//   - the interprocedural loop-nesting tree with (level, index) loop IDs
//     (§3.1, outlining — here each loop body is already an outlined closure);
//   - loop-slice tasks: for every loop, an entry point that executes an
//     arbitrary slice [lo, hi) of its iterations from an LST context (§3.2)
//     — the nest's own Slice, or one Compile builds from the loop's body or
//     children and hooks — with the chunking transformation and chunk-size
//     transferring inside it (§3.2);
//   - leftover tasks for every (promoted-at, split) loop pair, generated by
//     Algorithms 1 and 2 (§3.3), sharing one code body per pair;
//   - the slice task on each compiled loop and the leftover task table,
//     giving the promotion handler O(1) access to the task triple (§3.4).
//
// Exec is the heartbeat runtime (§5): it runs a compiled Program on a
// work-stealing team, polls a heartbeat source at promotion-ready points,
// and on each heartbeat promotes latent parallelism under the
// outer-loop-first policy, splitting the outermost loop with remaining
// iterations into two loop-slice tasks plus one leftover task. Adaptive
// Chunking (§5.1) tunes leaf chunk sizes online from observed poll counts.
package core

import (
	"fmt"
	"time"

	"hbc/internal/loopnest"
)

// LoopID identifies a DOALL loop within its nest as the paper does: level is
// the nesting depth (0 for the root) and index the position among loops of
// that level (preorder).
type LoopID struct {
	Level int
	Index int
}

func (id LoopID) String() string { return fmt.Sprintf("(%d,%d)", id.Level, id.Index) }

// Mode selects how a promotion schedules the leftover task.
type Mode int

const (
	// ModeHBC runs all three promotion tasks in parallel: two loop-slice
	// tasks plus the leftover task, each with a complete closure. This is
	// the paper's contribution (§3.3, §6.3).
	ModeHBC Mode = iota
	// ModeTPAL reproduces the prior-work baseline: the two loop-slice tasks
	// run in parallel while the leftover work executes serially on the
	// promoting worker's critical path, referencing the promoting task's
	// live accumulators rather than a private closure (§6.3).
	ModeTPAL
)

func (m Mode) String() string {
	if m == ModeTPAL {
		return "tpal"
	}
	return "hbc"
}

// ChunkKind selects the leaf-loop chunking transformation variant.
type ChunkKind int

const (
	// ChunkAdaptive uses the Adaptive Chunking runtime (§5.1): chunk sizes
	// start at 1 and are retuned per worker from observed poll counts.
	ChunkAdaptive ChunkKind = iota
	// ChunkStatic uses a fixed chunk size for every leaf loop, as TPAL's
	// hand-tuned binaries do.
	ChunkStatic
	// ChunkNone polls at every leaf iteration (chunk size 1, never adapted)
	// — the paper's "No chunking" ablation (Fig. 8).
	ChunkNone
	// ChunkGuided is guided self-scheduling: each budget refill takes
	// ceil(remaining/P) of the invocation's remaining iterations, so chunks
	// decay exponentially as a task's slice drains.
	ChunkGuided
	// ChunkFactoring is Hummel's factoring: chunks are dealt in batches of
	// P, each batch sized ceil(remaining/2P).
	ChunkFactoring
	// ChunkTrapezoid is trapezoid self-scheduling: chunk sizes decrease
	// linearly from ceil(N/2P) toward MinChunk.
	ChunkTrapezoid
	// ChunkWeighted is weighted factoring: factoring with each worker's
	// deal scaled by a static per-worker weight (ChunkPolicy.Weights).
	ChunkWeighted
	// ChunkAuto is the LB4OMP-style online selector: it profiles the first
	// ProfileRuns invocations under each candidate policy and locks the one
	// with the lowest median invocation time.
	ChunkAuto
)

func (k ChunkKind) String() string {
	switch k {
	case ChunkStatic:
		return "static"
	case ChunkNone:
		return "none"
	case ChunkGuided:
		return "guided"
	case ChunkFactoring:
		return "factoring"
	case ChunkTrapezoid:
		return "trapezoid"
	case ChunkWeighted:
		return "weighted"
	case ChunkAuto:
		return "auto"
	default:
		return "adaptive"
	}
}

// ParseChunkKind resolves a policy name ("adaptive", "static", "none",
// "guided", "factoring", "trapezoid", "weighted", "auto") to its ChunkKind.
func ParseChunkKind(name string) (ChunkKind, error) {
	for _, k := range chunkKinds {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("core: unknown scheduling policy %q (known: %v)", name, ScheduleNames())
}

var chunkKinds = []ChunkKind{
	ChunkAdaptive, ChunkStatic, ChunkNone, ChunkGuided,
	ChunkFactoring, ChunkTrapezoid, ChunkWeighted, ChunkAuto,
}

// ScheduleNames lists every selectable scheduling policy name, in a stable
// order, for CLIs and error messages.
func ScheduleNames() []string {
	out := make([]string, len(chunkKinds))
	for i, k := range chunkKinds {
		out[i] = k.String()
	}
	return out
}

// ChunkPolicy configures the chunking transformation.
type ChunkPolicy struct {
	Kind ChunkKind
	// Size is the chunk size ChunkStatic deals to every leaf. Zero defaults
	// to 1 at Compile; a negative size is a Compile error.
	Size int64
	// MinChunk floors the decreasing schedules (guided, factoring,
	// trapezoid, weighted) — the smallest chunk they will deal. Default 1.
	MinChunk int64
	// Weights are the per-worker weights for ChunkWeighted, mean-normalized
	// at setup; shorter slices cycle over the team, nil means uniform.
	// Negative weights are a Compile error.
	Weights []float64
	// Candidates are the policies ChunkAuto profiles, in order. Default:
	// adaptive, static, guided, factoring, trapezoid, weighted.
	// ChunkAuto itself is not a valid candidate.
	Candidates []ChunkKind
	// ProfileRuns is how many invocations ChunkAuto measures per candidate
	// before locking a winner. Default 3.
	ProfileRuns int
}

// Policy selects which loop a promotion splits — the design choice behind
// the paper's outer-loop-first scalability argument (§2), exposed here for
// ablation.
type Policy int

const (
	// PolicyOuterFirst splits the outermost loop with remaining iterations
	// (the paper's policy: coarse tasks first, preserving scalability).
	PolicyOuterFirst Policy = iota
	// PolicyInnerFirst splits the innermost promotable loop — the polling
	// loop itself when it can be halved, otherwise the nearest ancestor.
	// Produces finer tasks and more promotions for the same parallelism.
	PolicyInnerFirst
	// PolicySelfOnly splits only the polling loop, never an ancestor, and
	// therefore never needs leftover tasks — the lazy-binary-splitting
	// shape (§7), which forfeits outer-loop parallelism held by ancestors.
	PolicySelfOnly
)

func (p Policy) String() string {
	switch p {
	case PolicyInnerFirst:
		return "inner-first"
	case PolicySelfOnly:
		return "self-only"
	default:
		return "outer-first"
	}
}

// Options configures compilation and the runtime.
type Options struct {
	// Mode selects HBC or TPAL promotion scheduling. Default ModeHBC.
	Mode Mode
	// Policy selects the promotion target. Default PolicyOuterFirst.
	Policy Policy
	// Chunk selects the chunking policy. Default adaptive.
	Chunk ChunkPolicy
	// TargetPolls is Adaptive Chunking's target polling count per heartbeat
	// interval. Default 4 (paper Fig. 13).
	TargetPolls int64
	// WindowSize is Adaptive Chunking's sliding window length in
	// heartbeats. Default 8 (paper §6.6).
	WindowSize int
	// MaxChunk caps adapted chunk sizes. Default 1<<20.
	MaxChunk int64
	// InitialChunk seeds Adaptive Chunking's per-worker per-leaf starting
	// chunk size. The paper starts at 1 and adapts upward (the default);
	// a static cost estimate (analysis facts) can start the first window
	// near the right granularity instead. Clamped to [1, MaxChunk];
	// ignored by the static and none chunk policies.
	InitialChunk int64
	// DisablePromotion makes every promotion-handler call return without
	// promoting, leaving execution sequential. Used by the overhead
	// experiments (Figs. 7 and 8), which measure the cost of the inserted
	// machinery in isolation.
	DisablePromotion bool
}

func (o Options) withDefaults() Options {
	if o.TargetPolls <= 0 {
		o.TargetPolls = 4
	}
	if o.WindowSize <= 0 {
		o.WindowSize = 8
	}
	if o.MaxChunk <= 0 {
		o.MaxChunk = 1 << 20
	}
	if o.InitialChunk < 1 {
		o.InitialChunk = 1
	}
	if o.InitialChunk > o.MaxChunk {
		o.InitialChunk = o.MaxChunk
	}
	if o.Chunk.Kind == ChunkStatic && o.Chunk.Size <= 0 {
		o.Chunk.Size = 1
	}
	if o.Chunk.MinChunk < 1 {
		o.Chunk.MinChunk = 1
	}
	if o.Chunk.MinChunk > o.MaxChunk {
		o.Chunk.MinChunk = o.MaxChunk
	}
	if o.Chunk.Kind == ChunkAuto {
		if len(o.Chunk.Candidates) == 0 {
			o.Chunk.Candidates = []ChunkKind{
				ChunkAdaptive, ChunkStatic, ChunkGuided,
				ChunkFactoring, ChunkTrapezoid, ChunkWeighted,
			}
		}
		if o.Chunk.ProfileRuns <= 0 {
			o.Chunk.ProfileRuns = 3
		}
	}
	return o
}

// validate rejects chunk-policy configurations that would otherwise slip
// through to run time: a negative static size would silently become 1 in
// withDefaults, so it is a Compile error; only Size == 0 keeps the
// documented default-to-1 behavior.
func (o Options) validate() error {
	c := o.Chunk
	if c.Size < 0 {
		return fmt.Errorf("core: ChunkPolicy.Size %d is negative; use 0 for the default or a positive chunk size", c.Size)
	}
	if c.MinChunk < 0 {
		return fmt.Errorf("core: ChunkPolicy.MinChunk %d is negative", c.MinChunk)
	}
	if c.ProfileRuns < 0 {
		return fmt.Errorf("core: ChunkPolicy.ProfileRuns %d is negative", c.ProfileRuns)
	}
	for i, w := range c.Weights {
		if w < 0 {
			return fmt.Errorf("core: ChunkPolicy.Weights[%d] = %v; weights must be non-negative", i, w)
		}
	}
	if int(c.Kind) < 0 || int(c.Kind) >= len(chunkKinds) {
		return fmt.Errorf("core: unknown ChunkKind %d", c.Kind)
	}
	for _, k := range c.Candidates {
		if k == ChunkAuto {
			return fmt.Errorf("core: ChunkAuto cannot be its own candidate")
		}
		if int(k) < 0 || int(k) >= len(chunkKinds) {
			return fmt.Errorf("core: unknown ChunkKind %d in Candidates", k)
		}
	}
	return nil
}

// DefaultHeartbeat is the heartbeat period used throughout the paper's
// evaluation (§6.1).
const DefaultHeartbeat = 100 * time.Microsecond

// cloop is a compiled loop: the loopnest.Loop plus everything the runtime
// needs resolved ahead of time.
type cloop struct {
	spec *loopnest.Loop
	id   LoopID
	ord  int // preorder ordinal over all loops in the nest
	// parent is nil for the root.
	parent *cloop
	// slot is this loop's index within parent.Children.
	slot     int
	children []*cloop
	// leafOrd numbers leaves; -1 for interior loops.
	leafOrd int
	// spendOrd is the leaf whose private budget R this loop's
	// promotion-ready points spend from and whose AC window their polls
	// fill: the leaf's own ordinal, or an interior loop's last child's.
	spendOrd int
	// deferEnd reports that a budget running out exactly at the end of this
	// loop's invocation leaves the poll to the enclosing latch, which spends
	// from the same budget; at the root there is nothing left to promote.
	deferEnd bool
	// scope is the nearest loop at or above this one with a Reduce, or nil.
	// Bodies and hooks below this loop accumulate into scope's accumulator.
	scope *cloop
	// slice is the loop-slice task the executor drives the loop through:
	// the spec's Slice, or one built from its Body or children and hooks.
	slice loopnest.Slice
}

func (c *cloop) leaf() bool { return c.leafOrd >= 0 }

// spendPath returns the loop at level on c's spend path: c, its last
// child, that child's last child, and so on down to the leaf whose budget
// they all spend.
func (c *cloop) spendPath(level int) *cloop {
	for c.id.Level < level {
		c = c.children[len(c.children)-1]
	}
	return c
}

// Program is a compiled loop nest: the output of the HBC middle-end analog,
// ready to execute under heartbeat scheduling (via Exec) or sequentially
// (via RunSeq).
type Program struct {
	// Nest is the source loop nest.
	Nest *loopnest.Nest

	opts   Options
	loops  []*cloop // preorder
	leaves []*cloop
	depth  int
	// leftovers is the leftover task table (§3.4): leftovers[li.ord][lj.level]
	// is the leftover task for "loop li received the heartbeat, ancestor at
	// level lj.level gets split". The (ord, level) key is a perfect hash of
	// the paper's (loop ID, loop ID) pair domain.
	leftovers [][]*leftoverTask
}

// Compile lowers a validated loop nest into a Program. It is the analog of
// running HBC's middle-end passes (§3.1–3.4) at program setup time.
func Compile(nest *loopnest.Nest, opts Options) (*Program, error) {
	if err := nest.Validate(); err != nil {
		return nil, err
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	p := &Program{Nest: nest, opts: opts.withDefaults(), depth: nest.Depth()}
	p.outline()
	p.generateLeftovers()
	return p, nil
}

// MustCompile is Compile, panicking on error. For static nests.
func MustCompile(nest *loopnest.Nest, opts Options) *Program {
	p, err := Compile(nest, opts)
	if err != nil {
		panic(err)
	}
	return p
}

// outline builds the interprocedural loop-nesting tree with (level, index)
// IDs and each loop's slice task — the §3.1 pass. The loop bodies are
// already closures (Go outlines for us), so the pass's work is the tree,
// the IDs, the reduction-scope resolution that stands in for live-in /
// live-out closure analysis, and a Slice for every loop the nest gave none:
// the emitted templates written once over the loop's closures.
func (p *Program) outline() {
	counters := make([]int, p.depth)
	var walk func(l *loopnest.Loop, parent *cloop, slot, level int) *cloop
	walk = func(l *loopnest.Loop, parent *cloop, slot, level int) *cloop {
		c := &cloop{
			spec:    l,
			id:      LoopID{Level: level, Index: counters[level]},
			ord:     len(p.loops),
			parent:  parent,
			slot:    slot,
			leafOrd: -1,
		}
		counters[level]++
		p.loops = append(p.loops, c)
		if l.Reduce != nil {
			c.scope = c
		} else if parent != nil {
			c.scope = parent.scope
		}
		switch {
		case l.Slice != nil:
			c.slice = l.Slice
		case l.Leaf():
			c.slice = c.leafSlice
		default:
			c.slice = c.interiorSlice
		}
		if l.Leaf() {
			c.leafOrd = len(p.leaves)
			c.spendOrd = c.leafOrd
			p.leaves = append(p.leaves, c)
			return c
		}
		for i, k := range l.Children {
			c.children = append(c.children, walk(k, c, i, level+1))
		}
		c.spendOrd = c.children[len(c.children)-1].spendOrd
		return c
	}
	walk(nest(p), nil, 0, 0)
	for _, c := range p.loops {
		c.deferEnd = c.parent == nil || c.parent.spendOrd == c.spendOrd
	}
}

func nest(p *Program) *loopnest.Loop { return p.Nest.Root }

// Depth returns the number of nesting levels.
func (p *Program) Depth() int { return p.depth }

// Loops returns the number of DOALL loops.
func (p *Program) Loops() int { return len(p.loops) }

// Leaves returns the number of leaf loops.
func (p *Program) Leaves() int { return len(p.leaves) }

// LoopIDs returns the IDs of all loops in preorder, for inspection.
func (p *Program) LoopIDs() []LoopID {
	ids := make([]LoopID, len(p.loops))
	for i, c := range p.loops {
		ids[i] = c.id
	}
	return ids
}

// LeftoverCount returns the number of generated leftover tasks — one per
// (loop, proper ancestor) pair, the quadratic family the paper notes is
// impractical to write by hand (§3.3).
func (p *Program) LeftoverCount() int {
	n := 0
	for _, row := range p.leftovers {
		for _, t := range row {
			if t != nil {
				n++
			}
		}
	}
	return n
}

// Options returns the options the program was compiled with.
func (p *Program) Options() Options { return p.opts }

// ancestorAt returns the ancestor of l at the given level (possibly l).
func ancestorAt(l *cloop, level int) *cloop {
	for l != nil && l.id.Level != level {
		l = l.parent
	}
	if l == nil {
		panic("core: ancestorAt: no ancestor at level")
	}
	return l
}
