package core

import (
	"sync/atomic"

	"hbc/internal/sched"
	"hbc/internal/telemetry"
)

// promote is the promotion handler (§2, §3.2): called from a promotion-ready
// point in loop li when a heartbeat has arrived, it activates latent
// parallelism under the outer-loop-first policy. It returns the level of the
// loop that was split, or noPromo when nothing was promotable. When it
// returns a level, every remaining iteration of that loop's invocation —
// including the in-flight middle handled by the leftover task — has already
// completed: the handler forks the task triple and joins it (helping via
// work stealing) before returning, which preserves fork-join semantics for
// the split loop's caller.
//
// The convention at the call site: chain[li.level].iv is the next unstarted
// iteration of li (a leaf just finished a chunk, an interior loop just
// finished an iteration), while every ancestor's iv is its in-flight
// iteration.
func (x *Exec) promote(ts *taskRun, li *cloop) int {
	if x.prog.opts.DisablePromotion || ts.aborted() {
		// Promotion entry is a safepoint: a cancelled run must stop
		// activating latent parallelism (the caller's loop driver observes
		// the cancel flag at its next boundary and winds down).
		return noPromo
	}
	liLevel := li.id.Level

	// Find the loop to split. An ancestor needs >= 1 remaining iteration
	// (the leftover task supplies the third parallel strand); li itself
	// needs >= 2, since splitting its own unstarted range in two is the
	// only parallelism available there. The scan order is the policy:
	// outer-loop-first is the paper's, the others are ablations.
	var lj *cloop
	promotableSelf := remainingOf(&ts.chain[liLevel], true) >= 2
	switch x.prog.opts.Policy {
	case PolicySelfOnly:
		if promotableSelf {
			lj = li
		}
	case PolicyInnerFirst:
		if promotableSelf {
			lj = li
		} else {
			for lvl := liLevel - 1; lvl >= 0; lvl-- {
				if remainingOf(&ts.chain[lvl], false) >= 1 {
					lj = ts.chain[lvl].loop
					break
				}
			}
		}
	default: // PolicyOuterFirst
		for lvl := 0; lvl <= liLevel; lvl++ {
			if lvl == liLevel {
				if promotableSelf {
					lj = li
				}
				break
			}
			if remainingOf(&ts.chain[lvl], false) >= 1 {
				lj = ts.chain[lvl].loop
				break
			}
		}
	}
	if lj == nil {
		return noPromo
	}
	ljLevel := lj.id.Level

	x.stats.bump(ljLevel)

	if lj == li {
		x.splitSelf(ts, li)
		return liLevel
	}
	x.splitAncestor(ts, li, lj)
	return ljLevel
}

// recordPromotion traces one promotion on the promoting worker's lane when a
// tracer is attached; the event's A != B marks a leftover fork.
func (x *Exec) recordPromotion(w int, li, lj *cloop, lo, mid, hi int64) {
	if x.tr != nil {
		x.tr.Emit(w, telemetry.KindPromotion,
			telemetry.PackLoopID(li.id.Level, li.id.Index),
			telemetry.PackLoopID(lj.id.Level, lj.id.Index),
			lo, mid, hi)
	}
}

// splitSelf handles the case Lj == Li: the polling loop's own unstarted
// range [iv, hi) is divided into two loop-slice tasks. No leftover task is
// needed — a chunk boundary (or interior latch) is a clean cut.
func (x *Exec) splitSelf(ts *taskRun, l *cloop) {
	e := &ts.chain[l.id.Level]
	lo, hi := e.iv, e.hi
	mid := lo + (hi-lo)/2
	e.hi = e.iv // nothing of this invocation remains ours
	x.recordPromotion(ts.w.ID(), l, l, lo, mid, hi)

	latch := ts.w.NewLatch(1)
	accA := x.forkSlice(ts, l, lo, mid, latch)
	accB := x.forkSlice(ts, l, mid, hi, latch)
	latch.Done()
	ts.w.HelpUntil(latch) // a panicking join skips the recycle; the latch is GC'd
	ts.w.FreeLatch(latch)
	x.mergeInto(ts, l, accA, accB)
}

// splitAncestor handles the general case: ancestor Lj is split into two
// loop-slice tasks over the halves of its remaining iterations, and the
// leftover task for the (Li, Lj) pair — fetched from the leftover task
// table — completes the suspended middle. Under ModeHBC all three run in
// parallel; under ModeTPAL the leftover executes serially on this worker
// between the forks and the join, reproducing the prior work's critical-path
// placement (§6.3).
func (x *Exec) splitAncestor(ts *taskRun, li, lj *cloop) {
	ej := &ts.chain[lj.id.Level]
	lo, hi := ej.iv+1, ej.hi
	mid := lo + (hi-lo)/2
	ej.hi = ej.iv + 1 // only the in-flight iteration remains, owned by the leftover
	x.recordPromotion(ts.w.ID(), li, lj, lo, mid, hi)

	lt := x.prog.leftoverFor(li, lj)
	latch := ts.w.NewLatch(1)
	accA := x.forkSlice(ts, lj, lo, mid, latch)
	accB := x.forkSlice(ts, lj, mid, hi, latch)

	snap := ts.snapshot()
	// Freeze the levels above lj: their remaining iterations still belong to
	// this (suspended) task, so the leftover's own promotions must not see
	// them as latent parallelism.
	for i := 0; i < lj.id.Level; i++ {
		snap.chain[i].hi = snap.chain[i].iv + 1
	}
	if x.prog.opts.Mode == ModeTPAL {
		// Prior work: leftover on the promoting task's critical path, with
		// an incomplete closure — it keeps using this task's live
		// accumulators, which is safe only because it runs synchronously.
		lt2 := x.getTaskRun(ts.w)
		lt2.ctl = ts.ctl
		lt2.adopt(snap)
		x.stats.leftoverRuns.Add(1)
		// Guarded even though it runs inline, so panic attribution reports
		// the leftover's own loop position rather than the promoting task's.
		lt2.guarded(func() { lt.run(lt2) })
		x.putTaskRun(lt2)
	} else {
		ts.surrenderBelow(lj.id.Level) // the leftover owns those accumulators now
		ctl := ts.ctl
		x.spawn(ts.w, latch, func(w *sched.Worker) {
			lt2 := x.getTaskRun(w)
			lt2.ctl = ctl
			lt2.adopt(snap)
			x.stats.leftoverRuns.Add(1)
			lt2.guarded(func() { lt.run(lt2) })
			x.putTaskRun(lt2)
		})
	}

	latch.Done()
	ts.w.HelpUntil(latch)
	ts.w.FreeLatch(latch)
	x.mergeInto(ts, lj, accA, accB)
}

// forkSlice spawns a loop-slice task executing iterations [lo, hi) of loop
// l, with the enclosing context frozen from the current chain. If the slice
// writes into a reduction scope, it gets a fresh private accumulator, which
// is returned for merging at the join. Empty slices are skipped.
func (x *Exec) forkSlice(ts *taskRun, l *cloop, lo, hi int64, latch *sched.Latch) any {
	if lo >= hi {
		return nil
	}
	snap := ts.snapshot()
	lvl := l.id.Level
	// Freeze everything above l: those iterations belong to other tasks.
	for i := 0; i < lvl; i++ {
		snap.chain[i].hi = snap.chain[i].iv + 1
	}
	e := &snap.chain[lvl]
	e.lo, e.iv, e.hi = lo, lo, hi
	e.childPos = 0
	// Private accumulator for the nearest reduction scope, if any.
	var acc any
	if s := l.scope; s != nil {
		acc = s.spec.Reduce.Fresh()
		snap.chain[s.id.Level].acc = acc
	}
	// The slice shares no partially-filled iteration state below l.
	for i := lvl; i < len(snap.childAccs); i++ {
		snap.childAccs[i] = nil
	}
	// Chunk budgets start fresh in the new task.
	for i := range snap.budget {
		snap.budget[i] = -1
	}
	ctl := ts.ctl
	x.spawn(ts.w, latch, func(w *sched.Worker) {
		ts2 := x.getTaskRun(w)
		ts2.ctl = ctl
		ts2.adopt(snap)
		ts2.guarded(func() {
			if pl := ts2.runLoop(l); pl != noPromo {
				panic("core: promotion escaped a loop-slice task")
			}
		})
		// A guarded panic skips the recycle; the taskRun is GC'd with the run.
		x.putTaskRun(ts2)
	})
	return acc
}

// spawn pushes a task on the worker's own deque — the fast path that lets
// the same worker pop it right back when no thief intervenes.
func (x *Exec) spawn(w *sched.Worker, latch *sched.Latch, fn func(w *sched.Worker)) {
	x.stats.tasksForked.Add(1)
	w.Spawn(latch, fn)
}

// mergeInto folds the private accumulators of the two slice halves into the
// live accumulator of l's reduction scope, after the join.
func (x *Exec) mergeInto(ts *taskRun, l *cloop, accA, accB any) {
	s := l.scope
	if s == nil {
		return
	}
	into := ts.chain[s.id.Level].acc
	if accA != nil {
		s.spec.Reduce.Merge(into, accA)
	}
	if accB != nil {
		s.spec.Reduce.Merge(into, accB)
	}
}

// RunStats counts runtime events across Run invocations.
type RunStats struct {
	// PromotionsByLevel[k] counts promotions whose split loop sits at
	// nesting level k — the paper's Fig. 5 metric.
	PromotionsByLevel []int64

	promotions   atomic.Int64
	tasksForked  atomic.Int64
	leftoverRuns atomic.Int64
}

func (s *RunStats) bump(level int) {
	s.promotions.Add(1)
	atomic.AddInt64(&s.PromotionsByLevel[level], 1)
}

// Promotions returns the total number of promotions performed.
func (s *RunStats) Promotions() int64 { return s.promotions.Load() }

// TasksForked returns the number of tasks spawned by promotions.
func (s *RunStats) TasksForked() int64 { return s.tasksForked.Load() }

// LeftoverRuns returns the number of leftover tasks executed.
func (s *RunStats) LeftoverRuns() int64 { return s.leftoverRuns.Load() }

// ByLevel returns a copy of the per-level promotion counts.
func (s *RunStats) ByLevel() []int64 {
	out := make([]int64, len(s.PromotionsByLevel))
	for i := range out {
		out[i] = atomic.LoadInt64(&s.PromotionsByLevel[i])
	}
	return out
}

// Reset zeroes all counters.
func (s *RunStats) Reset() {
	s.promotions.Store(0)
	s.tasksForked.Store(0)
	s.leftoverRuns.Store(0)
	for i := range s.PromotionsByLevel {
		atomic.StoreInt64(&s.PromotionsByLevel[i], 0)
	}
}
