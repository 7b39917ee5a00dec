package core

import (
	"sync/atomic"
)

// Scheduling-policy lab — the pluggable leaf-granularity layer.
//
// The paper's runtime has exactly one granularity policy: §5.1 Adaptive
// Chunking. The self-scheduling literature (Ciorba et al., "OpenMP Loop
// Scheduling Revisited"; LB4OMP) names a wider design space of classic
// schedules — static, guided, factoring, trapezoid self-scheduling,
// weighted factoring — plus measure-then-switch runtime selection. This
// file makes the chunk-size decision a SchedPolicy interface, refactors AC
// behind it, and implements the classic schedules; selector.go adds the
// LB4OMP-style online selector. Every policy answers the same question the
// chunking transformation (§3.2) asks at each budget refill: "how many
// iterations may this worker run before its next promotion-ready point?"
//
// Placement differs from an OpenMP runtime in one important way: there is
// no central iteration queue. Each heartbeat task owns a contiguous slice
// [iv, hi) of a leaf loop, and `remaining` is the unstarted portion of
// *that invocation* on *this worker* — promotions, not chunk deals, move
// work between workers. The decreasing schedules therefore shape how
// quickly a task reaches its next poll as its slice drains, trading poll
// overhead (large chunks) against promotion latency (small chunks), which
// is exactly the trade-off AC tunes by feedback.

// SchedPolicy decides leaf-loop chunk sizes — the granularity of the
// chunking transformation, and with it the spacing of promotion-ready
// points. Implementations are shared by every worker of an Exec:
//
//   - NextChunk is called on the hot path by the owning worker w at each
//     budget refill, with the invocation's remaining iteration estimate.
//     It may mutate per-(w, ord) state, must not allocate, and must return
//     a positive chunk (the caller clamps to >= 1 as a backstop).
//   - OnWindow delivers a completed Adaptive-Chunking poll window: m is
//     the window's minimum per-heartbeat poll count for worker w, ord the
//     leaf it is attributed to. Feedback-driven policies retune here and
//     report the rescale for tracing; schedule-driven policies ignore it.
//   - Chunk is the observe-only read used by Exec.Chunks and the
//     telemetry registry. It may run concurrently with the owner's
//     NextChunk/OnWindow, so observable state lives in atomic slots.
type SchedPolicy interface {
	Name() string
	NextChunk(w, ord int, remaining int64) int64
	OnWindow(w, ord int, m int64) (prev, next int64, retuned bool)
	Chunk(w, ord int) int64
}

// PolicyInfo carries everything a policy constructor needs about the
// compiled program and team shape.
type PolicyInfo struct {
	// Workers is the team size.
	Workers int
	// Leaves is the number of leaf loops in the nest.
	Leaves int
	// Opts are the compile options (chunk policy, AC tuning knobs).
	Opts Options
}

// NewPolicy builds the SchedPolicy selected by info.Opts.Chunk. Exported so
// experiments and benchmarks (internal/schedbench) can exercise policies
// against synthetic workloads without compiling a nest; Exec builds its own
// instance per run context. Defaults are applied, so a zero Options is
// usable.
func NewPolicy(info PolicyInfo) SchedPolicy {
	info.Opts = info.Opts.withDefaults()
	if info.Workers < 1 {
		info.Workers = 1
	}
	if info.Leaves < 1 {
		info.Leaves = 1
	}
	return newKindPolicy(info.Opts.Chunk.Kind, info)
}

func newKindPolicy(kind ChunkKind, info PolicyInfo) SchedPolicy {
	o := info.Opts
	switch kind {
	case ChunkStatic:
		// Size is defaulted only for ChunkStatic itself; the static
		// candidate of ChunkAuto may see 0.
		return staticPolicy{size: max(o.Chunk.Size, 1)}
	case ChunkNone:
		return nonePolicy{}
	case ChunkGuided:
		return &guidedPolicy{
			slots:   newChunkSlots(info.Workers, info.Leaves, o.Chunk.MinChunk),
			workers: int64(info.Workers),
			min:     o.Chunk.MinChunk,
			max:     o.MaxChunk,
		}
	case ChunkFactoring:
		return newFactoringPolicy(info, nil)
	case ChunkWeighted:
		return newFactoringPolicy(info, weightTable(o.Chunk.Weights, info.Workers))
	case ChunkTrapezoid:
		p := &trapezoidPolicy{
			slots:   newChunkSlots(info.Workers, info.Leaves, o.Chunk.MinChunk),
			workers: int64(info.Workers),
			min:     o.Chunk.MinChunk,
			max:     o.MaxChunk,
		}
		p.rows = make([]tssRow, info.Workers)
		for w := range p.rows {
			p.rows[w].st = make([]tssState, info.Leaves)
		}
		return p
	case ChunkAuto:
		return newSelectorPolicy(info)
	default: // ChunkAdaptive
		return &adaptivePolicy{
			slots:  newChunkSlots(info.Workers, info.Leaves, o.InitialChunk),
			target: o.TargetPolls,
			max:    o.MaxChunk,
		}
	}
}

// chunkRow is one worker's row of observable chunk slots. Rows live in a
// contiguous slice indexed by worker, and the owner's NextChunk store is a
// hot-path write, so rows are cache-line padded on both sides like the
// acWorker slots they generalize.
//
//hbc:padded
type chunkRow struct {
	_ [64]byte // leading pad: isolate from the previous row / slice header
	c []atomic.Int64
	_ [64]byte // trailing pad: isolate from the next row's leading bytes
}

// chunkSlots is the shared observable state of a policy: the last chunk
// size dealt (or currently in force) per worker per leaf. Written only by
// the owning worker; read concurrently by observers, hence atomic.
type chunkSlots struct {
	rows []chunkRow
}

func newChunkSlots(workers, leaves int, init int64) *chunkSlots {
	s := &chunkSlots{rows: make([]chunkRow, workers)}
	for w := range s.rows {
		s.rows[w].c = make([]atomic.Int64, leaves)
		if init != 0 {
			for i := range s.rows[w].c {
				s.rows[w].c[i].Store(init)
			}
		}
	}
	return s
}

func (s *chunkSlots) load(w, ord int) int64     { return s.rows[w].c[ord].Load() }
func (s *chunkSlots) store(w, ord int, v int64) { s.rows[w].c[ord].Store(v) }

// ceilDiv returns ceil(a/b) for a >= 0, b > 0, and 0 for a <= 0.
func ceilDiv(a, b int64) int64 {
	if a <= 0 {
		return 0
	}
	return (a + b - 1) / b
}

// adaptivePolicy is the paper's §5.1 Adaptive Chunking behind the policy
// interface: chunk sizes start at InitialChunk and are retuned per worker
// per leaf from completed poll windows (OnWindow), by chunk * m / target.
type adaptivePolicy struct {
	slots  *chunkSlots
	target int64
	max    int64
}

func (p *adaptivePolicy) Name() string { return "adaptive" }

func (p *adaptivePolicy) NextChunk(w, ord int, _ int64) int64 {
	return p.slots.load(w, ord)
}

func (p *adaptivePolicy) OnWindow(w, ord int, m int64) (prev, next int64, retuned bool) {
	prev = p.slots.load(w, ord)
	next = rescaleChunk(prev, m, p.target, p.max)
	p.slots.store(w, ord, next)
	return prev, next, true
}

func (p *adaptivePolicy) Chunk(w, ord int) int64 { return p.slots.load(w, ord) }

// staticPolicy deals one fixed chunk size to every leaf — TPAL's hand-tuned
// static chunking.
type staticPolicy struct {
	size int64
}

func (p staticPolicy) Name() string                                    { return "static" }
func (p staticPolicy) NextChunk(_, _ int, _ int64) int64               { return p.size }
func (p staticPolicy) OnWindow(_, _ int, _ int64) (int64, int64, bool) { return 0, 0, false }
func (p staticPolicy) Chunk(_, _ int) int64                            { return p.size }

// nonePolicy polls at every iteration — the paper's "No chunking" ablation.
type nonePolicy struct{}

func (nonePolicy) Name() string                                    { return "none" }
func (nonePolicy) NextChunk(_, _ int, _ int64) int64               { return 1 }
func (nonePolicy) OnWindow(_, _ int, _ int64) (int64, int64, bool) { return 0, 0, false }
func (nonePolicy) Chunk(_, _ int) int64                            { return 1 }

// guidedPolicy is guided self-scheduling: each deal takes
// max(MinChunk, ceil(remaining / P)) of the invocation's remaining
// iterations, so chunks shrink exponentially as the slice drains and polls
// bunch toward the end, where promotion decisions matter most.
type guidedPolicy struct {
	slots   *chunkSlots
	workers int64
	min     int64
	max     int64
}

func (p *guidedPolicy) Name() string { return "guided" }

func (p *guidedPolicy) NextChunk(w, ord int, remaining int64) int64 {
	c := ceilDiv(remaining, p.workers)
	if c < p.min {
		c = p.min
	}
	if c > p.max {
		c = p.max
	}
	p.slots.store(w, ord, c)
	return c
}

func (p *guidedPolicy) OnWindow(_, _ int, _ int64) (int64, int64, bool) {
	return 0, 0, false
}

func (p *guidedPolicy) Chunk(w, ord int) int64 { return p.slots.load(w, ord) }

// facState is one worker's factoring batch position for one leaf: `left`
// deals remain at size `size` before the next batch is planned.
type facState struct {
	left int64
	size int64
}

// facRow is one worker's factoring state, padded like chunkRow: the state
// is owner-written on the hot path and rows are adjacent in a slice.
//
//hbc:padded
type facRow struct {
	_  [64]byte // leading pad: isolate from the previous row / slice header
	st []facState
	_  [64]byte // trailing pad: isolate from the next row's leading bytes
}

// factoringPolicy is Hummel's factoring (and, with a weight table, weighted
// factoring): iterations are dealt in batches of P chunks, each batch
// taking half of what remains — chunk = ceil(remaining / 2P), held for P
// deals before replanning. Weighted factoring scales each worker's deal by
// a static weight (mean-normalized), for heterogeneous workers. The batch
// also replans early when the remaining estimate drops below the planned
// size — a new, smaller invocation must not inherit a stale coarse batch.
type factoringPolicy struct {
	slots   *chunkSlots
	rows    []facRow
	workers int64
	min     int64
	max     int64
	// weight is the per-worker mean-normalized weight in 1/1024ths, nil for
	// plain factoring.
	weight []int64
	name   string
}

func newFactoringPolicy(info PolicyInfo, weight []int64) *factoringPolicy {
	o := info.Opts
	name := "factoring"
	if weight != nil {
		name = "weighted"
	}
	p := &factoringPolicy{
		slots:   newChunkSlots(info.Workers, info.Leaves, o.Chunk.MinChunk),
		workers: int64(info.Workers),
		min:     o.Chunk.MinChunk,
		max:     o.MaxChunk,
		weight:  weight,
		name:    name,
	}
	p.rows = make([]facRow, info.Workers)
	for w := range p.rows {
		p.rows[w].st = make([]facState, info.Leaves)
	}
	return p
}

// weightTable mean-normalizes raw per-worker weights into 1/1024th fixed
// point, cycling the raw slice when it is shorter than the team. A nil or
// empty slice yields uniform weights (weighted factoring degenerates to
// factoring).
func weightTable(raw []float64, workers int) []int64 {
	t := make([]int64, workers)
	if len(raw) == 0 {
		for i := range t {
			t[i] = 1 << 10
		}
		return t
	}
	sum := 0.0
	for w := 0; w < workers; w++ {
		sum += raw[w%len(raw)]
	}
	if sum <= 0 {
		for i := range t {
			t[i] = 1 << 10
		}
		return t
	}
	mean := sum / float64(workers)
	for w := 0; w < workers; w++ {
		t[w] = int64(raw[w%len(raw)] / mean * 1024)
		if t[w] < 1 {
			t[w] = 1
		}
	}
	return t
}

func (p *factoringPolicy) Name() string { return p.name }

func (p *factoringPolicy) NextChunk(w, ord int, remaining int64) int64 {
	s := &p.rows[w].st[ord]
	if s.left <= 0 || s.size <= 0 || s.size > remaining {
		s.size = ceilDiv(remaining, 2*p.workers)
		if s.size < p.min {
			s.size = p.min
		}
		if s.size > p.max {
			s.size = p.max
		}
		s.left = p.workers
	}
	s.left--
	c := s.size
	if p.weight != nil {
		c = (c * p.weight[w]) >> 10
		if c < p.min {
			c = p.min
		}
		if c > p.max {
			c = p.max
		}
	}
	p.slots.store(w, ord, c)
	return c
}

func (p *factoringPolicy) OnWindow(_, _ int, _ int64) (int64, int64, bool) {
	return 0, 0, false
}

func (p *factoringPolicy) Chunk(w, ord int) int64 { return p.slots.load(w, ord) }

// tssState is one worker's trapezoid descent for one leaf: chunks decrease
// linearly from f = ceil(N/2P) toward MinChunk by delta per deal, planned
// for an iteration space of n0.
type tssState struct {
	n0    int64
	next  int64
	delta int64
}

// tssRow is one worker's trapezoid state, padded like facRow.
//
//hbc:padded
type tssRow struct {
	_  [64]byte // leading pad: isolate from the previous row / slice header
	st []tssState
	_  [64]byte // trailing pad: isolate from the next row's leading bytes
}

// trapezoidPolicy is trapezoid self-scheduling (TSS): a linear descent from
// first chunk f = ceil(N/2P) to last chunk l = MinChunk over
// n = ceil(2N/(f+l)) deals, with delta = (f-l)/(n-1). The descent replans
// whenever the remaining estimate exceeds the space it was planned for (a
// new, larger invocation) or the descent is exhausted.
type trapezoidPolicy struct {
	slots   *chunkSlots
	rows    []tssRow
	workers int64
	min     int64
	max     int64
}

func (p *trapezoidPolicy) Name() string { return "trapezoid" }

func (p *trapezoidPolicy) NextChunk(w, ord int, remaining int64) int64 {
	s := &p.rows[w].st[ord]
	if remaining > s.n0 || s.next <= 0 {
		s.n0 = remaining
		f := ceilDiv(remaining, 2*p.workers)
		if f < p.min {
			f = p.min
		}
		if f > p.max {
			f = p.max
		}
		l := p.min
		steps := ceilDiv(2*remaining, f+l)
		if steps < 2 {
			steps = 2
		}
		s.delta = (f - l) / (steps - 1)
		s.next = f
	}
	c := s.next
	if c < p.min {
		c = p.min
	}
	if c > p.max {
		c = p.max
	}
	s.next = c - s.delta
	p.slots.store(w, ord, c)
	return c
}

func (p *trapezoidPolicy) OnWindow(_, _ int, _ int64) (int64, int64, bool) {
	return 0, 0, false
}

func (p *trapezoidPolicy) Chunk(w, ord int) int64 { return p.slots.load(w, ord) }
