package core

import (
	"context"
	"errors"
	"sync"
	"time"

	"hbc/internal/loopnest"
	"hbc/internal/pulse"
	"hbc/internal/sched"
	"hbc/internal/telemetry"
)

// ErrNotStarted is returned by RunCtx when Start has not been called.
var ErrNotStarted = errors.New("core: Exec.Run before Start")

// lst is a Loop-Slice Task context (§3.2): the per-invocation state of one
// loop — its closure is the shared environment plus the indices of the
// enclosing loops (held in the chain entries above), its iteration space
// [lo, hi), its induction variable iv, and its reduction accumulator. A
// task's chain of LST contexts, outermost first, is what the promotion
// handler reads to seed new tasks, exactly as the paper passes the set of
// LST contexts down to every nested loop.
type lst struct {
	loop *cloop
	lo   int64
	hi   int64
	// iv is the induction variable. For the loop currently at a
	// promotion-ready point it is the next unstarted iteration; for
	// ancestors it is the in-flight iteration.
	iv int64
	// childPos is the index of the child invocation currently executing
	// within iteration iv (interior loops).
	childPos int
	// acc is this loop's reduction accumulator for the invocation, nil if
	// the loop has no Reduce.
	acc any
}

// remaining returns the iterations not owned by any other task: everything
// from the next unstarted iteration on.
func remainingOf(e *lst, current bool) int64 {
	if current {
		// The loop at the poll site: iv itself is unstarted.
		return e.hi - e.iv
	}
	// An ancestor mid-iteration: iv is in flight.
	return e.hi - e.iv - 1
}

// Exec runs a compiled Program under heartbeat scheduling. Create one with
// NewExec, call Start, any number of Run invocations, then Stop. Adaptive
// Chunking state persists across Run calls (the repeated-invocation
// scenario of Fig. 11).
type Exec struct {
	prog   *Program
	team   *sched.Team
	src    pulse.Source
	env    any
	period time.Duration

	ac []acWorker
	// ch decides leaf chunk sizes: Adaptive Chunking, or a fixed size.
	ch      chunker
	stats   RunStats
	started bool
	// lifeMu serializes Start/Stop so concurrent or repeated Close calls
	// (e.g. a deferred Close racing a failure-path Close) are safe.
	lifeMu sync.Mutex
	// manage records whether this Exec owns the source's Attach/Detach
	// lifecycle (false when several Execs share one attached source).
	manage bool
	// ctl is the control block of the invocation in progress. Exec supports
	// one Run at a time; tasks spawned during the run read it through their
	// taskRun.
	ctl *runCtl

	// tr is the telemetry tracer, nil unless attached via SetTracer; the
	// disabled path is one pointer test at each already-rare event site.
	tr *telemetry.Tracer

	// trPool and snapPool recycle the per-task execution state of promoted
	// slice and leftover tasks, so a promotion's task bodies do not pay the
	// six-slice taskRun allocation (chain, idx, budget, srt, accPool,
	// childAccs) or the snapshot header on every fork.
	trPool   sync.Pool
	snapPool sync.Pool
	// root is the root task the last run that did not panic left behind,
	// reused by the next run. Its root accumulator is surrendered to the
	// caller at the end of each run, so a returned result never aliases a
	// later run's.
	root *taskRun
}

// NewExec prepares a run of prog on team, polling src at the given
// heartbeat period, with the shared environment env.
func NewExec(prog *Program, team *sched.Team, src pulse.Source, period time.Duration, env any) *Exec {
	if period <= 0 {
		period = DefaultHeartbeat
	}
	x := &Exec{prog: prog, team: team, src: src, env: env, period: period, manage: true}
	x.stats.PromotionsByLevel = make([]int64, prog.depth)
	x.ac = make([]acWorker, team.Size())
	for i := range x.ac {
		x.ac[i].init(x.prog.opts)
	}
	x.ch = newChunker(team.Size(), len(prog.leaves), prog.opts)
	return x
}

// NewExecShared is NewExec for a source whose Attach/Detach lifecycle the
// caller manages — used when several programs of one workload share a single
// heartbeat source. The source must already be attached for the same team
// size and period.
func NewExecShared(prog *Program, team *sched.Team, src pulse.Source, period time.Duration, env any) *Exec {
	x := NewExec(prog, team, src, period, env)
	x.manage = false
	x.started = true
	return x
}

// Env returns the environment the Exec was created with.
func (x *Exec) Env() any { return x.env }

// SetTracer attaches a telemetry tracer recording heartbeat detections,
// promotions, and Adaptive Chunking retunes on the workers' lanes. Must be
// called before the first Run; a nil tracer leaves tracing disabled.
func (x *Exec) SetTracer(tr *telemetry.Tracer) { x.tr = tr }

// Start attaches the heartbeat source. Must precede the first Run. A no-op
// for shared-source Execs and when already started; idempotent.
func (x *Exec) Start() {
	x.lifeMu.Lock()
	defer x.lifeMu.Unlock()
	if x.started {
		return
	}
	x.src.Attach(x.team.Size(), x.period)
	x.started = true
}

// Stop detaches the heartbeat source. A no-op for shared-source Execs.
// Stop is idempotent and safe after a failed run.
func (x *Exec) Stop() {
	x.lifeMu.Lock()
	defer x.lifeMu.Unlock()
	if !x.started || !x.manage {
		return
	}
	x.src.Detach()
	x.started = false
}

// Run executes one invocation of the loop nest and returns the root loop's
// reduction accumulator (nil if the root has no Reduce). It blocks until
// every iteration — including all promoted tasks — has completed.
//
// If the nest fails, Run panics with the *PanicError (or ErrTeamClosed)
// that RunCtx would have returned — and, as a leak guard, detaches the
// heartbeat source first, so a panicking run cannot strand a signaling
// goroutine when the caller has no deferred Close. Callers that want an
// error instead of a panic, or cancellation, should use RunCtx.
func (x *Exec) Run() any {
	v, err := x.RunCtx(context.Background())
	if err != nil {
		// A failed run leaves the nest partially executed; release the
		// source before unwinding. Stop is idempotent, so a deferred
		// Close/Stop at the caller remains safe.
		x.Stop()
		panic(err)
	}
	return v
}

// RunCtx executes one invocation of the loop nest under the given context
// and returns the root loop's reduction accumulator (nil if the root has no
// Reduce).
//
// Failure semantics: if ctx is cancelled or its deadline passes, every task
// of the run — including promoted slice tasks and leftover tasks — stops at
// its next safepoint (the same chunk boundaries and interior latches at
// which heartbeats are polled), all joins drain, and RunCtx returns
// ctx.Err(). If any loop body, hook, or bounds function panics, the first
// panic wins: it is captured as a *PanicError naming the faulting loop and
// iteration, the rest of the run is cancelled the same way, and the error is
// returned once every task has drained. In both cases the Exec, its team,
// and its heartbeat source remain usable for subsequent runs. Outputs
// written by already-executed iterations are visible; reduction results of a
// failed run are discarded.
func (x *Exec) RunCtx(ctx context.Context) (result any, err error) {
	if !x.started {
		return nil, ErrNotStarted
	}
	ctl := &runCtl{}
	x.ctl = ctl
	if ctx == nil {
		ctx = context.Background()
	}
	if ctx.Done() != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// The callback may run after RunCtx returned (stop lost the race):
		// it then aborts this run's ctl, which no task reads any more, since
		// every run gets a fresh one.
		stop := context.AfterFunc(ctx, func() { ctl.abort(ctx.Err()) })
		defer stop()
	}
	err = func() (err error) {
		defer func() {
			if v := recover(); v != nil {
				pe, ok := v.(*PanicError)
				if !ok {
					// A panic outside the guarded task tree (should not
					// happen); contain it rather than crash the caller.
					pe = &PanicError{Value: v, Worker: -1}
				}
				err = pe
			}
		}()
		return x.team.Run(func(w *sched.Worker) {
			ts := x.rootTask(w)
			ts.guarded(func() {
				root := x.prog.loops[0]
				ts.setupInvocation(root)
				if pl := ts.runLoop(root); pl != noPromo {
					panic("core: promotion escaped the root loop")
				}
				result = ts.chain[0].acc
				ts.accPool[root.ord] = nil // the caller's now
			})
			x.root = ts // not reached on the panic path: the task is dropped
		})
	}()
	if err != nil {
		return nil, err
	}
	if ctl.canceled() {
		// Cancelled runs complete early with partial coverage; their
		// reduction result is meaningless, so report the cause instead.
		return nil, ctl.err()
	}
	return result, nil
}

// Stats returns the accumulated runtime statistics.
func (x *Exec) Stats() *RunStats { return &x.stats }

// Pulse returns the heartbeat source's delivery statistics.
func (x *Exec) Pulse() pulse.Stats { return x.src.Stats() }

const noPromo = -1

// taskRun is the execution state of one task: a chain of LST contexts, the
// scratch index vector handed to user callbacks, the per-leaf chunk budgets
// (the paper's private counter R, which transfers across leaf invocations),
// and per-loop scratch accumulators.
type taskRun struct {
	x *Exec
	w *sched.Worker
	// ctl is the run's shared control block (cancellation + first fault).
	ctl *runCtl
	// cur is the loop whose user code (body, hook, or bounds) is currently
	// executing, maintained for panic attribution.
	cur *cloop
	// inBounds is set while cur's Bounds runs: the invocation being set up
	// has no index of its own yet.
	inBounds bool

	chain []lst
	idx   []int64
	// budget is the paper's R: iterations left before the next
	// promotion-ready point, one per leaf loop, carried across leaf-loop
	// invocations within the task (chunk-size transferring, §3.2). Interior
	// latches spend from their loop's spendOrd entry, so R carries across
	// levels as well. A task starts every R at -1: no chunk drawn yet, so
	// a zero always means a chunk ran out and its poll is owed.
	budget []int64
	// owed records a budget that ran out exactly at the end of an
	// invocation whose poll was left to the enclosing latch (exhausted).
	owed bool
	// stop is the deepest level a slice recorded with Stop since the
	// driver last entered one, or -1 when none did.
	stop int
	// srt holds one SliceRT per loop. Entries reference this taskRun by
	// pointer, so the scaffolding is built once per taskRun and survives
	// pooling — a slice-task invocation allocates nothing.
	srt []sliceRT
	// accPool holds a reusable accumulator per loop ordinal, so reductions
	// do not allocate per iteration. Entries are surrendered (nil'd) when a
	// promotion hands them to a leftover task.
	accPool []any
	// childAccs[level] collects the child accumulators of the iteration in
	// flight at that level, for the Post hook.
	childAccs [][]any
}

func newTaskRun(x *Exec, w *sched.Worker) *taskRun {
	p := x.prog
	ts := &taskRun{
		x:         x,
		w:         w,
		ctl:       x.ctl,
		chain:     make([]lst, p.depth),
		idx:       make([]int64, p.depth),
		budget:    make([]int64, len(p.leaves)),
		srt:       make([]sliceRT, len(p.loops)),
		accPool:   make([]any, len(p.loops)),
		childAccs: make([][]any, p.depth),
	}
	for i := range ts.budget {
		ts.budget[i] = -1
	}
	for i, l := range p.loops {
		ts.srt[i] = sliceRT{ts: ts, l: l}
	}
	return ts
}

// rootTask returns the root task of a run on w: the one the last run left
// behind, reset as newTaskRun would build it, or a new one. The scratch
// accumulators below the root stay for accForLoop to reset, as they do
// between invocations within one task.
func (x *Exec) rootTask(w *sched.Worker) *taskRun {
	ts := x.root
	if ts == nil {
		return newTaskRun(x, w)
	}
	x.root = nil
	ts.w, ts.ctl, ts.cur, ts.owed = w, x.ctl, nil, false
	for i := range ts.budget {
		ts.budget[i] = -1
	}
	clear(ts.childAccs)
	return ts
}

// sliceRT adapts a taskRun to the loopnest.SliceRT interface for the slice
// of loop l, which spends l's budget. Passed as *sliceRT, so the interface
// conversion does not allocate.
type sliceRT struct {
	ts *taskRun
	l  *cloop
}

func (rt *sliceRT) Budget() *int64 { return &rt.ts.budget[rt.l.spendOrd] }

// Chunk ignores remaining: neither Adaptive Chunking nor a fixed size
// depends on it.
func (rt *sliceRT) Chunk(int64) int64 { return rt.ts.x.ch.next(rt.ts.w.ID(), rt.l.spendOrd) }

func (rt *sliceRT) Poll() bool    { return rt.ts.poll(rt.l.spendOrd) }
func (rt *sliceRT) Aborted() bool { return rt.ts.aborted() }

func (rt *sliceRT) Child(k int) loopnest.SliceRT { return &rt.ts.srt[rt.l.children[k].ord] }

// Acc returns the task's scratch accumulator for the loop at level on l's
// spend path — the one accForLoop would reset for its next invocation —
// creating it when a promotion surrendered it.
func (rt *sliceRT) Acc(level int) any {
	ts := rt.ts
	c := rt.l.spendPath(level)
	a := ts.accPool[c.ord]
	if a == nil && c.spec.Reduce != nil {
		a = c.spec.Reduce.Fresh()
		ts.accPool[c.ord] = a
	}
	return a
}

func (rt *sliceRT) Stop(level int, lo, iv, hi int64) { rt.ts.stopAt(rt.l.spendPath(level), lo, iv, hi) }

// stopAt writes a stopped invocation of loop c into the task's LST chain,
// exactly as setupInvocation and the driver would have left it: c ran
// [lo, iv) into its scratch accumulator, and iv is its next unstarted
// iteration if it is the innermost stop, its in-flight one otherwise. The
// parent's entry records c as the child in flight.
func (ts *taskRun) stopAt(c *cloop, lo, iv, hi int64) {
	lvl := c.id.Level
	if ts.stop < 0 {
		ts.stop = lvl
	}
	e := &ts.chain[lvl]
	e.loop = c
	e.lo, e.iv, e.hi = lo, iv, hi
	e.acc = ts.accPool[c.ord]
	// The siblings before c ran into their scratch accumulators, which the
	// iteration's tail hands to Post.
	par := c.parent
	ts.chain[lvl-1].childPos = c.slot
	ca := ts.childAccsFor(par)
	for i, sib := range par.children[:c.slot] {
		ca[i] = ts.accPool[sib.ord]
	}
}

// getTaskRun returns a taskRun for a promoted slice or leftover task,
// recycled from the pool when possible. The caller installs ctl and adopts a
// snapshot, which together overwrite every field adopt does not reset.
func (x *Exec) getTaskRun(w *sched.Worker) *taskRun {
	if v := x.trPool.Get(); v != nil {
		ts := v.(*taskRun)
		ts.w = w
		return ts
	}
	return newTaskRun(x, w)
}

// putTaskRun recycles a finished slice/leftover taskRun. The child-acc
// slices are dropped (their backing arrays were visible to user Post hooks),
// and control fields are cleared; the scratch accumulators in accPool stay —
// accForLoop resets them before reuse, exactly as it already does between
// invocations within one task. Not called on the panic path (guarded
// re-raises before we get here), so a faulting task's state is simply GC'd.
func (x *Exec) putTaskRun(ts *taskRun) {
	ts.cur = nil
	ts.ctl = nil
	ts.w = nil
	for i := range ts.childAccs {
		ts.childAccs[i] = nil
	}
	x.trPool.Put(ts)
}

// snapshot captures the state a forked task needs: the LST chain, the
// partially-filled child accumulators, and the chunk budgets.
type snapshot struct {
	chain     []lst
	childAccs [][]any
	budget    []int64
}

// getSnapshot returns a snapshot shell with the program's dimensions,
// recycled from the pool when possible. Every slot is overwritten by
// taskRun.snapshot, so no clearing is needed on reuse.
func (x *Exec) getSnapshot() *snapshot {
	if v := x.snapPool.Get(); v != nil {
		return v.(*snapshot)
	}
	p := x.prog
	return &snapshot{
		chain:     make([]lst, p.depth),
		childAccs: make([][]any, p.depth),
		budget:    make([]int64, len(p.leaves)),
	}
}

func (ts *taskRun) snapshot() *snapshot {
	s := ts.x.getSnapshot()
	copy(s.chain, ts.chain)
	copy(s.budget, ts.budget)
	for i, ca := range ts.childAccs {
		if ca != nil {
			// Fresh backing array per snapshot: adopt hands it to the new
			// task outright, so it must not be shared with the pool.
			s.childAccs[i] = append([]any(nil), ca...)
		} else {
			s.childAccs[i] = nil
		}
	}
	return s
}

// adopt installs a snapshot into a taskRun and releases the snapshot shell
// back to the pool. Each snapshot is adopted exactly once: the chain and
// budgets are copied, while the child-acc slices transfer ownership.
func (ts *taskRun) adopt(s *snapshot) {
	copy(ts.chain, s.chain)
	copy(ts.budget, s.budget)
	ts.owed = false
	for i, ca := range s.childAccs {
		ts.childAccs[i] = ca
		s.childAccs[i] = nil
	}
	for lvl := range ts.chain {
		ts.idx[lvl] = ts.chain[lvl].iv
	}
	ts.x.snapPool.Put(s)
}

// accVisible resolves the accumulator a body or hook under loop l writes:
// the accumulator of l's nearest reducing scope, found in the live chain.
func (ts *taskRun) accVisible(l *cloop) any {
	if l.scope == nil {
		return nil
	}
	return ts.chain[l.scope.id.Level].acc
}

// accForLoop returns a reset accumulator for a new invocation of loop l,
// reusing the task's scratch when available.
func (ts *taskRun) accForLoop(l *cloop) any {
	r := l.spec.Reduce
	if r == nil {
		return nil
	}
	if a := ts.accPool[l.ord]; a != nil && r.Reset != nil {
		r.Reset(a)
		return a
	}
	a := r.Fresh()
	ts.accPool[l.ord] = a
	return a
}

// surrenderBelow gives up ownership of every scratch accumulator of loops
// deeper than level, because a leftover task now holds references to them.
// HBC mode only: TPAL's leftover runs synchronously on this worker, which
// is exactly its "incomplete closure" design (§6.3).
func (ts *taskRun) surrenderBelow(level int) {
	for _, l := range ts.x.prog.loops {
		if l.id.Level > level {
			ts.accPool[l.ord] = nil
		}
	}
	for lvl := level; lvl < len(ts.childAccs); lvl++ {
		ts.childAccs[lvl] = nil
	}
}

// aborted reports whether the run has been cancelled — by context, deadline,
// or a sibling's panic. Checked at the same safepoints as heartbeat polls.
func (ts *taskRun) aborted() bool { return ts.ctl != nil && ts.ctl.canceled() }

// setupInvocation initializes the chain entry for a new invocation of loop
// l, computing its bounds from the enclosing indices.
func (ts *taskRun) setupInvocation(l *cloop) {
	lo, hi := ts.bounds(l, ts.idx[:l.id.Level])
	e := &ts.chain[l.id.Level]
	e.loop = l
	e.lo, e.iv, e.hi = lo, lo, hi
	e.childPos = 0
	e.acc = ts.accForLoop(l)
}

// bounds calls l's Bounds over the enclosing indices idx, marking the call
// for panic attribution.
func (ts *taskRun) bounds(l *cloop, idx []int64) (int64, int64) {
	ts.cur, ts.inBounds = l, true
	lo, hi := l.spec.Bounds(ts.x.env, idx)
	ts.inBounds = false
	return lo, hi
}

// childAccsFor returns the per-iteration child accumulator slice for
// interior loop l, allocating it on first use.
func (ts *taskRun) childAccsFor(l *cloop) []any {
	ca := ts.childAccs[l.id.Level]
	if len(ca) < len(l.children) {
		grown := make([]any, len(l.children))
		copy(grown, ca)
		ca = grown
		ts.childAccs[l.id.Level] = ca
	}
	return ca
}

// runLoop drives the invocation of loop l described by chain[l.level]
// through l's slice — the one driver of every loop, whether its slice was
// generated, hand-written, or built at Compile. A return below hi with no
// stop recorded is a promotion-ready point of l itself (or a cancellation):
// promote at l and re-enter. A return at hi with R at zero ended the
// invocation on a spent chunk or latch, whose poll falls to exhausted. A
// stop inside an iteration (ts.stop >= 0) left the stopped levels'
// (lo, iv, hi) in the chain: promote at the deepest, finish the in-flight
// iterations with the Algorithm-2 walk, close l's with its latch, and
// re-enter. It returns noPromo when the invocation is complete (all
// iterations accounted for, possibly via promotion), or the level of an
// outer loop that a promotion split, which the drivers unwind to.
// Invariant: the returned level is strictly above l.
func (ts *taskRun) runLoop(l *cloop) int {
	e := &ts.chain[l.id.Level]
	lvl := l.id.Level
	rt := &ts.srt[l.ord]
	acc := ts.accVisible(l)
	idx := ts.idx[:lvl]
	for e.iv < e.hi {
		// Safepoint: a cancelled run abandons the rest of the invocation
		// here, the same boundary a heartbeat poll sits on.
		if ts.aborted() {
			return noPromo
		}
		ts.cur, ts.idx[lvl], ts.stop = l, e.iv, -1
		e.iv = l.slice(ts.x.env, idx, e.iv, e.hi, acc, rt)
		var pl int
		switch {
		case ts.stop >= 0:
			if ts.aborted() {
				return noPromo
			}
			for m := lvl; m < ts.stop; m++ {
				ts.idx[m] = ts.chain[m].iv
			}
			deep := ts.chain[ts.stop].loop
			if pl = ts.walk(deep, l, ts.x.promote(ts, deep)); pl == noPromo {
				pl = ts.latch(l)
			}
		case e.iv >= e.hi:
			if ts.budget[l.spendOrd] == 0 {
				return ts.exhausted(l)
			}
			return noPromo
		default:
			if ts.aborted() {
				return noPromo
			}
			pl = ts.x.promote(ts, l)
		}
		if pl != noPromo {
			if pl < lvl {
				return pl
			}
			// pl == l's level: this loop was split; its remaining iterations
			// and the tail of the in-flight one now belong to the promoted
			// tasks, and the handler already joined them.
			return noPromo
		}
	}
	return noPromo
}

// leafSlice is the Slice Compile gives a leaf that has none: the emitted
// leaf template (codegen's sliceTaskNestK) written once, calling Body where
// the emitter inlines the loop. It keeps the task's panic attribution on
// the chunk in flight.
func (c *cloop) leafSlice(env any, idx []int64, iv, hi int64, acc any, srt loopnest.SliceRT) int64 {
	rt := srt.(*sliceRT)
	b := rt.Budget()
	for iv < hi {
		r := *b
		if r <= 0 {
			if rt.Aborted() {
				return iv
			}
			r = rt.Chunk(hi - iv)
		}
		n := min(r, hi-iv)
		rt.ts.cur, rt.ts.idx[c.id.Level] = c, iv
		c.spec.Body(env, idx, iv, iv+n, acc)
		iv += n
		r -= n
		*b = r
		if r == 0 && iv < hi {
			*b = rt.Chunk(hi - iv)
			if rt.Poll() || rt.Aborted() {
				return iv
			}
		}
	}
	return iv
}

// interiorSlice is the Slice Compile gives an interior loop that has none:
// the emitted interior template written once for k children, calling the
// children's Bounds and slices and the loop's hooks where the emitter
// inlines them. Only the driver and other built slices call it, always on
// the task's own index vector, so idx has room for this loop's index; the
// children's accumulators are the ones tailOf and Post read. Like the
// emitted slices, it checks cancellation wherever a chunk is drawn.
func (c *cloop) interiorSlice(env any, idx []int64, iv, hi int64, acc any, srt loopnest.SliceRT) int64 {
	rt := srt.(*sliceRT)
	ts := rt.ts
	lvl := c.id.Level
	cidx := idx[:lvl+1]
	ca := ts.childAccsFor(c)
	last := len(c.children) - 1
	b := rt.Budget()
	for iv < hi {
		cidx[lvl] = iv
		if c.spec.Pre != nil {
			ts.cur = c
			c.spec.Pre(env, cidx, acc)
		}
		ran := false
		for k, ch := range c.children {
			lo, chi := ts.bounds(ch, cidx)
			a := ts.accForLoop(ch)
			ca[k] = a
			if lo >= chi {
				continue
			}
			ran = true
			vis := acc
			if a != nil {
				vis = a
			}
			crt := &ts.srt[ch.ord]
			if civ := ch.slice(env, cidx, lo, chi, vis, crt); civ < chi {
				ts.stopAt(ch, lo, civ, chi)
				return iv
			}
			// A child before the last spends its own R, so the poll its
			// chunk owes at its hi is taken here, not at this latch.
			if cb := crt.Budget(); k < last && *cb == 0 {
				*cb = crt.Chunk(0)
				if crt.Poll() || crt.Aborted() {
					ts.stopAt(ch, lo, chi, chi)
					return iv
				}
			}
		}
		if c.spec.Post != nil {
			ts.cur = c
			c.spec.Post(env, cidx, acc, ca)
		}
		iv++
		if !ran {
			if *b <= 0 {
				if rt.Aborted() {
					return iv
				}
				*b = rt.Chunk(hi - iv)
			}
			*b--
		}
		if *b == 0 {
			if iv >= hi {
				return iv
			}
			*b = rt.Chunk(hi - iv)
			if rt.Poll() || rt.Aborted() {
				return iv
			}
		}
	}
	return iv
}

// latch closes loop l's in-flight iteration (§3.2) where the walk finished
// it. The iteration's children already paid for it, so the latch debits
// nothing; it polls only for a child invocation that ended with its poll
// owed.
func (ts *taskRun) latch(l *cloop) int {
	ts.chain[l.id.Level].iv++
	if ts.owed {
		return ts.exhausted(l)
	}
	return noPromo
}

// runChildren executes the child invocations of l's current iteration
// starting at child index from, saving each child's accumulator for the
// Post hook.
func (ts *taskRun) runChildren(l *cloop, from int) int {
	e := &ts.chain[l.id.Level]
	ca := ts.childAccsFor(l)
	for ci := from; ci < len(l.children); ci++ {
		e.childPos = ci
		c := l.children[ci]
		ts.setupInvocation(c)
		if pl := ts.runLoop(c); pl != noPromo {
			return pl
		}
		ca[ci] = ts.chain[c.id.Level].acc
	}
	return noPromo
}

// tailOf completes the tail work of loop l's in-flight iteration: the child
// invocations after the one control returned from, then the Post hook. This
// is the paper's TailWork (Algorithm 2).
func (ts *taskRun) tailOf(l *cloop) int {
	e := &ts.chain[l.id.Level]
	lvl := l.id.Level
	ts.idx[lvl] = e.iv
	// The in-flight child's accumulator was never saved by runChildren (the
	// promotion interrupted it); it still lives in the chain entry the
	// snapshot carried.
	ca := ts.childAccsFor(l)
	inFlight := l.children[e.childPos]
	ca[e.childPos] = ts.chain[inFlight.id.Level].acc
	if pl := ts.runChildren(l, e.childPos+1); pl != noPromo {
		return pl
	}
	if l.spec.Post != nil {
		ts.cur = l
		l.spec.Post(ts.x.env, ts.idx[:lvl+1], ts.accVisible(l), ts.childAccs[lvl])
	}
	return noPromo
}

// walk is Algorithm 2, shared by the driver finishing a stopped iteration
// and by the leftover task: it completes the rest of deep's invocation —
// unless pl, the result of a promotion at deep, says a split already did —
// then, for each loop from deep's parent up to top, the tail of its
// in-flight iteration and, below top, its latch and remaining iterations.
// A nested promotion at level q hands everything at levels >= q to new
// tasks, so the walk goes on from q's parent. A poll owed where an
// invocation ended is taken at the next latch the walk runs, or dropped
// with the task's end. It returns noPromo once top's tail is done, or the
// level (at or above top) of a loop a promotion split.
func (ts *taskRun) walk(deep, top *cloop, pl int) int {
	cur := deep
	if pl == noPromo {
		pl = ts.runLoop(deep)
	}
	for {
		if pl != noPromo {
			if pl <= top.id.Level {
				return pl
			}
			cur = ancestorAt(deep, pl)
		}
		par := cur.parent
		pl = ts.tailOf(par)
		if par == top {
			return pl
		}
		if pl == noPromo {
			pl = ts.latch(par)
		}
		if pl == noPromo {
			pl = ts.runLoop(par)
		}
		cur = par
	}
}

// exhausted is the promotion-ready point of loop l once the budget it
// spends from has reached zero, with chain[l.level].iv the next unstarted
// iteration. A budget that runs out exactly at the end of l's invocation
// stays at zero when l.deferEnd, and the poll is owed to the enclosing
// latch, where outer-loop-first promotion can still split the loops above
// l (the root's owed poll is dropped: the run is over). Otherwise R is
// refilled from the chunker and the heartbeat polled, running the promotion
// handler on a beat. It returns the level of a split ancestor for the
// driver to unwind to, or noPromo — also after a split of l itself, which
// leaves l's invocation with no iterations.
func (ts *taskRun) exhausted(l *cloop) int {
	e := &ts.chain[l.id.Level]
	if e.iv >= e.hi && l.deferEnd {
		ts.owed = true
		return noPromo
	}
	ts.owed = false
	ord := l.spendOrd
	ts.budget[ord] = ts.x.ch.next(ts.w.ID(), ord)
	if !ts.poll(ord) {
		return noPromo
	}
	if pl := ts.x.promote(ts, l); pl != noPromo && pl < l.id.Level {
		return pl
	}
	return noPromo
}

// poll checks the heartbeat source and feeds Adaptive Chunking's poll
// window. ord is the leaf whose budget ran out: every poll spends a full
// budget, so a completed window measures that leaf's chunk.
func (ts *taskRun) poll(ord int) bool {
	w := ts.w.ID()
	k := ts.x.src.Poll(w)
	a := &ts.x.ac[w]
	a.polls++
	if k == 0 {
		return false
	}
	m, windowDone := a.onHeartbeat()
	var prev, next int64
	retuned := false
	if windowDone {
		prev, next, retuned = ts.x.ch.retune(w, ord, m)
	}
	if tr := ts.x.tr; tr != nil {
		tr.Emit(w, telemetry.KindBeat, int64(k), int64(ord), 0, 0, 0)
		if retuned {
			tr.Emit(w, telemetry.KindRetune, int64(ord), next, prev, m, ts.idx[0])
		}
	}
	return true
}

// seqState is the per-strand state of the sequential driver, used by the
// serial elision (RunSeq) and, one instance per block, by the static
// scheduler (RunStatic).
type seqState struct {
	p      *Program
	env    any
	idx    []int64
	scopes []any // accumulator per level of reducing loops
	accs   [][]any
}

func (p *Program) newSeqState(env any) *seqState {
	s := &seqState{
		p:      p,
		env:    env,
		idx:    make([]int64, p.depth),
		scopes: make([]any, p.depth),
		accs:   make([][]any, p.depth),
	}
	return s
}

func (s *seqState) visible(l *cloop) any {
	if l.scope == nil {
		return nil
	}
	return s.scopes[l.scope.id.Level]
}

// run executes one full invocation of l over its own bounds.
func (s *seqState) run(l *cloop) any {
	lvl := l.id.Level
	lo, hi := l.spec.Bounds(s.env, s.idx[:lvl])
	return s.runRange(l, lo, hi)
}

// runRange executes iterations [lo, hi) of loop l.
func (s *seqState) runRange(l *cloop, lo, hi int64) any {
	lvl := l.id.Level
	var acc any
	if l.spec.Reduce != nil {
		acc = l.spec.Reduce.Fresh()
		s.scopes[lvl] = acc
	}
	if l.leaf() {
		if hi > lo {
			l.spec.Body(s.env, s.idx[:lvl], lo, hi, s.visible(l))
		}
		return acc
	}
	ca := s.accs[lvl]
	if len(ca) < len(l.children) {
		ca = make([]any, len(l.children))
		s.accs[lvl] = ca
	}
	for i := lo; i < hi; i++ {
		s.idx[lvl] = i
		if l.spec.Pre != nil {
			l.spec.Pre(s.env, s.idx[:lvl+1], s.visible(l))
		}
		for ci, c := range l.children {
			ca[ci] = s.run(c)
		}
		if l.spec.Post != nil {
			l.spec.Post(s.env, s.idx[:lvl+1], s.visible(l), ca)
		}
	}
	return acc
}

// RunSeq executes the nest sequentially with none of the heartbeat
// machinery — the serial elision. It serves as a correctness oracle for the
// parallel executor; the overhead experiments use handwritten serial kernels
// as their baseline instead, since RunSeq already pays the closure-call
// costs the experiments isolate.
func (p *Program) RunSeq(env any) any {
	return p.newSeqState(env).run(p.loops[0])
}

// RunStatic executes the nest under static scheduling: the root loop's
// iteration space is split into one contiguous block per worker, each block
// running the poll-free sequential driver, with per-block reduction
// accumulators merged at the barrier. This is the complementary scheduler
// the paper's conclusion calls for (§6.8): static for regular workloads,
// heartbeat for irregular ones — an ideal compiler ships both. Nested
// parallelism inside blocks is not activated (as with OpenMP static on the
// outermost loop).
func (p *Program) RunStatic(team *sched.Team, env any) any {
	root := p.loops[0]
	lo, hi := root.spec.Bounds(env, nil)
	n := int64(team.Size())
	if total := hi - lo; total < n {
		n = total
	}
	if n <= 1 {
		return p.RunSeq(env)
	}
	accs := make([]any, n)
	per := (hi - lo + n - 1) / n
	var result any
	err := team.Run(func(w *sched.Worker) {
		latch := w.NewLatch(1)
		for b := int64(0); b < n; b++ {
			blo := lo + b*per
			bhi := blo + per
			if bhi > hi {
				bhi = hi
			}
			b := b
			w.Spawn(latch, func(_ *sched.Worker) {
				accs[b] = p.newSeqState(env).runRange(root, blo, bhi)
			})
		}
		latch.Done()
		w.HelpUntil(latch)
		w.FreeLatch(latch)
		if root.spec.Reduce != nil {
			result = accs[0]
			for _, a := range accs[1:] {
				if a != nil {
					root.spec.Reduce.Merge(result, a)
				}
			}
		}
	})
	if err != nil {
		panic(err) // static runs on a closed team are a programming error
	}
	return result
}
