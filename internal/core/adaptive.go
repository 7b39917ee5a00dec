package core

import (
	"math/bits"
	"sync/atomic"
)

// Adaptive Chunking (AC) — the paper's §5.1 runtime.
//
// The chunking transformation amortizes polling cost over S iterations, but
// the right S depends on how long an iteration takes, which for irregular
// workloads varies with the input and over time. AC retunes S online: each
// worker counts how many polls it makes per heartbeat interval; over a
// sliding window of WindowSize heartbeats it takes the minimum observed
// count m, and rescales the chunk size by m / TargetPolls (minimum 1). Too
// many polls per heartbeat (m > target) means chunks are too fine and S
// grows; polls arriving slower than heartbeats (m < target, heartbeats
// being missed) means chunks are too coarse and S shrinks. Chunk sizes are
// per worker and per leaf loop, start at 1, and persist across invocations
// of the same program — the repeated-invocation adaptation of Fig. 11.
//
// The window bookkeeping lives in acWorker, the chunk sizes in chunker,
// which also carries the one alternative to AC: a fixed chunk size
// (Options.StaticChunk). Exec.poll feeds each completed window to
// chunker.retune; every budget refill reads chunker.next.

// acWorker is one worker's heartbeat-window state. Each slot is written
// only by its owning worker. Slots live in a contiguous slice (Exec.ac), so
// both sides are padded: trailing-only padding keeps a slot's hot head off
// the *previous* slot's fields, but leaves it sharing a line with whatever
// the allocator places before the slice — and, if fields are ever added
// without re-auditing the size, with the previous slot's tail. The leading
// pad makes the isolation unconditional. polls is incremented on every
// heartbeat poll — the hottest per-worker write in the runtime — so a
// shared line here shows up directly in Fig. 7-style overhead measurements.
//
//hbc:padded
type acWorker struct {
	_ [64]byte // leading pad: isolate from the previous slot / slice header
	// polls counts polling-function invocations since the last detected
	// heartbeat (the paper's per-worker poll counter).
	polls int64
	// window logs the poll count of each heartbeat interval in the current
	// window.
	window []int64
	wfill  int
	_      [64]byte // trailing pad: isolate from the next slot's leading bytes
}

func (a *acWorker) init(o Options) {
	a.window = make([]int64, o.WindowSize)
	a.wfill = 0
	a.polls = 0
}

// rescaleChunk computes chunk * m / target, clamped to [1, max], without
// the int64 overflow the naive product suffers: when chunk and m are both
// large (a coarse chunk during a long poll-dense interval), chunk*m can
// wrap negative before the clamp, and the old `s < 1` branch then reset
// the chunk to 1 — restarting adaptation from scratch. The product is
// taken in 128 bits and the quotient clamped before narrowing.
func rescaleChunk(chunk, m, target, max int64) int64 {
	if chunk < 1 || m < 1 {
		return 1
	}
	hi, lo := bits.Mul64(uint64(chunk), uint64(m))
	if hi >= uint64(target) {
		// The quotient alone exceeds 64 bits; it is certainly >= max.
		return max
	}
	q, _ := bits.Div64(hi, lo, uint64(target))
	if q > uint64(max) {
		return max
	}
	if q < 1 {
		return 1
	}
	return int64(q)
}

// onHeartbeat logs the interval's poll count and reports when a window
// completes, with m the window's minimum poll count. The caller attributes
// the window to the leaf whose budget the detecting poll spent: every poll,
// leaf or latch, sits where a budget ran out, so the window measures that
// leaf's chunk.
func (a *acWorker) onHeartbeat() (m int64, done bool) {
	a.window[a.wfill] = a.polls
	a.polls = 0
	a.wfill++
	if a.wfill < len(a.window) {
		return 0, false
	}
	a.wfill = 0
	m = a.window[0]
	for _, v := range a.window[1:] {
		if v < m {
			m = v
		}
	}
	return m, true
}

// chunkRow is one worker's row of chunk slots, one per leaf. Rows live in
// a contiguous slice indexed by worker and a retune stores into its own
// row on the hot path, so rows are cache-line padded on both sides like
// the acWorker slots.
//
//hbc:padded
type chunkRow struct {
	_ [64]byte // leading pad: isolate from the previous row / slice header
	c []atomic.Int64
	_ [64]byte // trailing pad: isolate from the next row's leading bytes
}

// chunker decides leaf chunk sizes: Adaptive Chunking's per-worker
// per-leaf slots, retuned from completed poll windows by
// chunk * m / target, or one fixed size when static > 0. A slot is written
// only by its owning worker and read concurrently by observers
// (Exec.Chunks), hence atomic.
type chunker struct {
	rows   []chunkRow // nil when static > 0
	static int64
	target int64
	max    int64
}

func newChunker(workers, leaves int, o Options) chunker {
	c := chunker{static: o.StaticChunk, target: o.TargetPolls, max: o.MaxChunk}
	if c.static > 0 {
		return c
	}
	c.rows = make([]chunkRow, workers)
	for w := range c.rows {
		c.rows[w].c = make([]atomic.Int64, leaves)
		for i := range c.rows[w].c {
			c.rows[w].c[i].Store(o.InitialChunk)
		}
	}
	return c
}

// next returns worker w's chunk size for leaf ord.
func (c *chunker) next(w, ord int) int64 {
	if c.static > 0 {
		return c.static
	}
	return c.rows[w].c[ord].Load()
}

// retune applies a completed poll window with minimum poll count m to
// worker w's chunk for leaf ord and reports the rescale for tracing. A
// fixed size never retunes.
func (c *chunker) retune(w, ord int, m int64) (prev, next int64, retuned bool) {
	if c.static > 0 {
		return 0, 0, false
	}
	slot := &c.rows[w].c[ord]
	prev = slot.Load()
	next = rescaleChunk(prev, m, c.target, c.max)
	slot.Store(next)
	return prev, next, true
}

// Chunks returns worker w's current chunk size for each leaf, for
// observation by experiments and the telemetry registry. Safe to call
// while a run is active: the slots are atomic, so sampling never races
// with the owner's updates.
func (x *Exec) Chunks(w int) []int64 {
	out := make([]int64, len(x.prog.leaves))
	for i := range out {
		out[i] = x.ch.next(w, i)
	}
	return out
}
