package sched

import (
	"sync/atomic"
	"time"
)

// Scheduler observability. Every counter is written only by its owning
// worker, on cache lines dedicated to that worker, so recording an event
// costs one uncontended atomic add — cheap enough to leave on in
// production. Reads aggregate across workers on demand (Team.Counters), so
// observation pays the cross-core traffic, not the hot path.

// wcounters holds one worker's monitoring counters. The leading and
// trailing pads keep the block off the cache lines of whatever surrounds it
// in the Worker struct, so counter writes never invalidate a line another
// core is reading (the worker array, the deque pointer, a neighbor's
// counters).
//
//hbc:padded
type wcounters struct {
	_         [64]byte
	spawned   atomic.Int64 // tasks pushed via Spawn
	execs     atomic.Int64 // tasks executed to completion
	steals    atomic.Int64 // successful steals
	parks     atomic.Int64 // times the worker parked
	wakes     atomic.Int64 // times a park ended via a wake signal
	taskHit   atomic.Int64 // task free-list hits
	taskMiss  atomic.Int64 // task free-list misses (heap allocation)
	latchHit  atomic.Int64 // latch free-list hits
	latchMiss atomic.Int64 // latch free-list misses (heap allocation)
	stealNS   atomic.Int64 // total ns successful steals spent searching
	_         [64]byte
}

// Counters is an aggregated snapshot of scheduler activity, for
// instrumentation and tests. Obtain per-worker values with Worker.Counters
// and team totals with Team.Counters; per-run deltas are the difference of
// two snapshots.
type Counters struct {
	// Spawned counts tasks pushed: worker spawns plus, for team-level
	// snapshots, external Run submissions.
	Spawned int64
	// Executed counts tasks run to completion.
	Executed int64
	// Steals counts successful steals.
	Steals int64
	// Parks counts the times a worker gave up spinning and parked.
	Parks int64
	// Wakes counts parks that ended via an explicit wake signal (rather
	// than an external submission or the fallback timer).
	Wakes int64
	// TaskPoolHits/Misses count task free-list reuse vs heap allocation.
	TaskPoolHits   int64
	TaskPoolMisses int64
	// LatchPoolHits/Misses count latch free-list reuse vs heap allocation.
	LatchPoolHits   int64
	LatchPoolMisses int64
	// StealNanos is the total time successful steals spent searching for a
	// victim, in nanoseconds. StealNanos/Steals is the mean steal latency.
	StealNanos int64
}

// AvgStealLatency returns the mean time a successful steal spent searching.
func (c Counters) AvgStealLatency() time.Duration {
	if c.Steals == 0 {
		return 0
	}
	return time.Duration(c.StealNanos / c.Steals)
}

// plus returns the fieldwise sum of two snapshots.
func (c Counters) plus(o Counters) Counters {
	c.Spawned += o.Spawned
	c.Executed += o.Executed
	c.Steals += o.Steals
	c.Parks += o.Parks
	c.Wakes += o.Wakes
	c.TaskPoolHits += o.TaskPoolHits
	c.TaskPoolMisses += o.TaskPoolMisses
	c.LatchPoolHits += o.LatchPoolHits
	c.LatchPoolMisses += o.LatchPoolMisses
	c.StealNanos += o.StealNanos
	return c
}

// Sub returns the fieldwise difference c - o, for per-run deltas.
func (c Counters) Sub(o Counters) Counters {
	c.Spawned -= o.Spawned
	c.Executed -= o.Executed
	c.Steals -= o.Steals
	c.Parks -= o.Parks
	c.Wakes -= o.Wakes
	c.TaskPoolHits -= o.TaskPoolHits
	c.TaskPoolMisses -= o.TaskPoolMisses
	c.LatchPoolHits -= o.LatchPoolHits
	c.LatchPoolMisses -= o.LatchPoolMisses
	c.StealNanos -= o.StealNanos
	return c
}

// Counters returns a snapshot of this worker's counters.
func (w *Worker) Counters() Counters {
	return Counters{
		Spawned:         w.c.spawned.Load(),
		Executed:        w.c.execs.Load(),
		Steals:          w.c.steals.Load(),
		Parks:           w.c.parks.Load(),
		Wakes:           w.c.wakes.Load(),
		TaskPoolHits:    w.c.taskHit.Load(),
		TaskPoolMisses:  w.c.taskMiss.Load(),
		LatchPoolHits:   w.c.latchHit.Load(),
		LatchPoolMisses: w.c.latchMiss.Load(),
		StealNanos:      w.c.stealNS.Load(),
	}
}

// Counters returns the team-wide aggregate: the sum across workers, with
// external Run submissions folded into Spawned.
func (t *Team) Counters() Counters {
	var sum Counters
	for _, w := range t.workers {
		sum = sum.plus(w.Counters())
	}
	sum.Spawned += t.ext.Load()
	return sum
}
