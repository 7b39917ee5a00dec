// Package sched implements the work-stealing task scheduler underneath the
// heartbeat runtime.
//
// A Team owns a fixed set of worker goroutines, one Chase-Lev deque each.
// Tasks forked by a worker go on its own deque (LIFO for the owner, FIFO for
// thieves), which is the structure that makes the clone optimization of
// lazy-scheduling runtimes possible: the three tasks created by a heartbeat
// promotion are usually popped back by the same worker in order, paying only
// an atomic decrement at the join instead of cross-core synchronization. A
// task is stolen — and the slow path taken — only when another worker runs
// dry.
//
// Joins are "helping" joins: a worker waiting on a Latch keeps executing
// tasks from its own deque and stealing from others until the latch opens,
// so no worker ever blocks while runnable work exists.
//
// # Fast-path cost model
//
// Heartbeat scheduling only wins if the per-fork constant factor is small
// (the promotion handler forks three tasks per heartbeat), so the
// spawn→execute→join fast path is engineered to be allocation-free and free
// of shared-cacheline writes:
//
//   - Task and Latch objects come from per-worker free lists (owner-only,
//     no locks) and are recycled after execution / after the join. See
//     Worker.NewLatch, Worker.FreeLatch.
//   - A Latch is an atomic counter plus a *lazily created* park channel: the
//     common path — the promoting worker pops its own three tasks back and
//     joins them via HelpUntil — never touches a channel or the heap. Only
//     an external (non-worker) goroutine calling Wait installs a channel.
//   - Spawn counters are per-worker, on dedicated cache lines, aggregated
//     on read (Team.Counters); there is no team-global counter on the spawn
//     path.
//   - Spawn wakes a parked worker only when one is actually parked (tracked
//     by an atomic idle count). When the team is saturated, Spawn performs
//     no channel operation and writes no shared cache line — it reads one
//     rarely-written word.
//
// DESIGN.md §9 documents the before/after cost model in full.
package sched

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hbc/internal/deque"
	"hbc/internal/telemetry"
)

// ErrTeamClosed is returned by Run when the team has been closed. It replaces
// the historical panic so callers can treat a shut-down pool as an ordinary
// error condition.
var ErrTeamClosed = errors.New("sched: team closed")

// Task is a unit of work executed by a worker. After Run returns, the
// scheduler signals the task's latch, if any. Tasks are recycled through
// per-worker free lists; user code never retains a *Task.
type Task struct {
	// Run executes the task on the given worker.
	Run func(w *Worker)
	// Latch, if non-nil, is signaled (Done) when the task completes.
	Latch *Latch

	// next links the task into a worker's free list (owner goroutine only).
	next *Task
}

// Latch is a countdown latch used to join forked tasks. It is created with a
// count via NewLatch (or the pooled Worker.NewLatch); each Done decrements,
// and waiters observe completion when the count reaches zero. Workers should
// join with Worker.HelpUntil so they keep the system busy; external
// goroutines use Wait.
//
// The latch is an atomic counter plus a lazily created park channel: workers
// joining via HelpUntil spin on an atomic pointer load, so the common
// promoting-worker-pops-its-own-tasks path performs no channel operation and
// no allocation. Only Wait — the external join — installs a channel.
//
// Panics inside tasks are captured (the first one wins) and re-raised at the
// join point by HelpUntil and Wait, so a panicking loop body surfaces on the
// goroutine that forked the work instead of killing a worker.
type Latch struct {
	count atomic.Int64
	// park is nil while the latch is open for business with no external
	// waiter, points to a waiter-installed channel while an external
	// goroutine blocks in Wait, and is swapped to latchOpen — the closed
	// sentinel — by the Done that reaches zero. Completion is defined as
	// park == latchOpen: that swap is the finisher's last access to the
	// latch, which is what makes recycling safe (see FreeLatch).
	park atomic.Pointer[chan struct{}]
	pval atomic.Pointer[panicBox]

	// next links the latch into a worker's free list (owner goroutine only).
	next *Latch
}

// latchOpen marks an opened latch. It points at an already-closed channel so
// a waiter that loads the sentinel can block on it and return immediately.
var latchOpen = func() *chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return &ch
}()

// panicBox carries a recovered panic value across goroutines.
type panicBox struct{ v any }

// NewLatch returns a latch that opens after n calls to Done. Workers should
// prefer the pooled Worker.NewLatch.
func NewLatch(n int) *Latch {
	l := &Latch{}
	l.reset(n)
	return l
}

// reset re-arms a (new or recycled) latch. The caller must hold the only
// reference.
func (l *Latch) reset(n int) {
	l.count.Store(int64(n))
	l.park.Store(nil)
	l.pval.Store(nil)
	l.next = nil
	if n == 0 {
		l.open()
	}
}

// Add increases the latch count by n. Calling Add after the latch has opened
// is a programming error; to spawn dynamically, create the latch with a guard
// count of one, Add(1) per spawn, and Done the guard after the last spawn.
func (l *Latch) Add(n int) {
	l.count.Add(int64(n))
}

// Done decrements the latch count, opening the latch at zero.
//
//hbc:noalloc
func (l *Latch) Done() {
	switch c := l.count.Add(-1); {
	case c == 0:
		l.open()
	case c < 0:
		panic("sched: Latch.Done called too many times")
	}
}

// open publishes completion: swap in the sentinel, then wake any external
// waiter whose channel the swap returned. The swap is the last access this
// goroutine makes to the latch itself, so an owner that observes Completed
// may immediately recycle it.
func (l *Latch) open() {
	if old := l.park.Swap(latchOpen); old != nil && old != latchOpen {
		close(*old)
	}
}

// Completed reports whether the latch has opened. A single atomic pointer
// load — this is what HelpUntil spins on.
func (l *Latch) Completed() bool {
	return l.park.Load() == latchOpen
}

// Wait blocks until the latch opens, then re-raises the first panic any of
// the joined tasks suffered. Workers must use Worker.HelpUntil instead; Wait
// is for external (non-worker) goroutines.
func (l *Latch) Wait() {
	p := l.park.Load()
	if p == nil {
		// Install a park channel; the Done that reaches zero will swap it
		// out and close it. Losing the race means either the latch opened
		// (we load the closed sentinel) or another waiter installed a
		// channel first (we block on theirs; open closes it for all).
		ch := make(chan struct{})
		if l.park.CompareAndSwap(nil, &ch) {
			p = &ch
		} else {
			p = l.park.Load()
		}
	}
	<-*p
	l.rethrow()
}

// recordPanic stores the first panic observed among the latch's tasks.
func (l *Latch) recordPanic(v any) {
	l.pval.CompareAndSwap(nil, &panicBox{v: v})
}

// rethrow re-raises a recorded panic, if any.
func (l *Latch) rethrow() {
	if b := l.pval.Load(); b != nil {
		panic(b.v)
	}
}

// Team is a fixed-size pool of workers sharing work by stealing.
type Team struct {
	workers []*Worker
	inbox   chan *Task // external task submissions
	wake    chan struct{}
	stop    chan struct{}
	closed  atomic.Bool
	wg      sync.WaitGroup
	ext     atomic.Int64 // external submissions via Run, for Spawned

	// nidle counts parked workers. Spawn reads it to decide whether a wake
	// signal is needed at all; it is written only on park/unpark
	// transitions, so during saturated execution the line stays in shared
	// state and Spawn's load is cheap. Padded onto its own cache line so
	// those park-time writes don't invalidate neighbors.
	_     [64]byte
	nidle atomic.Int64
	_     [56]byte
	// inflight counts Run calls in progress. Together with closed it forms
	// the Run/Close gate: Run increments before checking closed, Close sets
	// closed before waiting for inflight to drain, so (by the usual
	// store/load-vs-store/load argument over sequentially consistent
	// atomics) a Run either observes the close and backs out before
	// submitting, or its submitted task is guaranteed workers to run it.
	inflight atomic.Int64
	_        [56]byte
}

// newTeam builds a team without starting the worker goroutines; tests drive
// workers manually through it.
func newTeam(n int) *Team {
	if n < 1 {
		n = 1
	}
	t := &Team{
		inbox: make(chan *Task, n),
		wake:  make(chan struct{}, n),
		stop:  make(chan struct{}),
	}
	t.workers = make([]*Worker, n)
	for i := 0; i < n; i++ {
		t.workers[i] = &Worker{
			id:   i,
			team: t,
			dq:   deque.New[Task](64),
			rng:  uint64(i)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d,
		}
	}
	for _, w := range t.workers {
		w.victims = make([]*Worker, 0, n-1)
		for _, v := range t.workers {
			if v != w {
				w.victims = append(w.victims, v)
			}
		}
	}
	return t
}

// TeamOption configures a Team at creation, before its workers start.
type TeamOption func(*Team)

// WithTracer attaches a telemetry tracer: workers record steal, park, and
// unpark events on their lanes. Must be passed at creation (the field is
// read by running workers); a nil tracer leaves tracing disabled, and the
// disabled path is a single pointer test — the spawn/join fast path stays
// allocation-free either way.
func WithTracer(tr *telemetry.Tracer) TeamOption {
	return func(t *Team) {
		for _, w := range t.workers {
			w.tr = tr
		}
	}
}

// NewTeam creates a team with n workers (n < 1 is treated as 1) and starts
// them. Close must be called to release the worker goroutines.
func NewTeam(n int, opts ...TeamOption) *Team {
	t := newTeam(n)
	for _, o := range opts {
		o(t)
	}
	for _, w := range t.workers {
		t.wg.Add(1)
		go w.loop()
	}
	return t
}

// Size returns the number of workers in the team.
func (t *Team) Size() int { return len(t.workers) }

// Worker returns the i'th worker, for observation by instrumentation.
func (t *Team) Worker(i int) *Worker { return t.workers[i] }

// Spawned returns the total number of tasks pushed onto the team, aggregated
// from the per-worker counters plus external Run submissions.
func (t *Team) Spawned() int64 {
	n := t.ext.Load()
	for _, w := range t.workers {
		n += w.c.spawned.Load()
	}
	return n
}

// Close shuts the team down. Close is idempotent: second and later calls are
// no-ops, so deferred cleanups after a failed run are safe.
//
// Close is deterministic against concurrent Run calls: a Run that has
// already been admitted (its task submitted) completes normally before the
// workers exit, and a Run that arrives after Close returns ErrTeamClosed
// without submitting — no task is ever orphaned in the inbox.
func (t *Team) Close() {
	if t.closed.Swap(true) {
		return
	}
	// Wait for admitted Run calls to drain before stopping the workers.
	for t.inflight.Load() != 0 {
		runtime.Gosched()
	}
	close(t.stop)
	t.wg.Wait()
}

// Closed reports whether Close has been called.
func (t *Team) Closed() bool { return t.closed.Load() }

// Idle returns the number of workers currently parked — workers that found
// no runnable work and blocked on the wake channel. A saturated team reports
// 0; a quiescent team reports Size() once every worker has drained its spin
// budget. One atomic load; cheap enough for an admission controller to read
// per request.
func (t *Team) Idle() int { return int(t.nidle.Load()) }

// Inflight returns the number of Run calls currently admitted (submitted or
// executing). Together with Idle this is the introspection surface a layer
// above the scheduler uses to judge saturation without touching the
// per-worker counters.
func (t *Team) Inflight() int { return int(t.inflight.Load()) }

// Run submits fn as a root task and blocks the calling goroutine until it
// (and everything it forked and joined internally) completes. Run must be
// called from outside the team's workers. It returns ErrTeamClosed if the
// team has been closed; a panic inside the task tree is re-raised on the
// calling goroutine (first panic wins), exactly as Latch.Wait does.
func (t *Team) Run(fn func(w *Worker)) error {
	// Gate against Close: see the inflight field. The decrement is deferred
	// so a panicking task tree (re-raised out of Wait) still releases it.
	t.inflight.Add(1)
	defer t.inflight.Add(-1)
	if t.closed.Load() {
		return ErrTeamClosed
	}
	l := NewLatch(1)
	task := &Task{Run: fn, Latch: l}
	t.ext.Add(1)
	t.inbox <- task // workers are guaranteed alive while inflight > 0
	if t.nidle.Load() != 0 {
		t.signal()
	}
	l.Wait()
	return nil
}

// signal wakes at most one parked worker.
func (t *Team) signal() {
	select {
	case t.wake <- struct{}{}:
	default:
	}
}

// Pool capacities: beyond these, recycled objects are left to the GC. The
// steady-state population on the fast path is a handful per worker (three
// tasks and one latch per in-flight promotion); the caps only bound bursts.
const (
	taskPoolCap  = 256
	latchPoolCap = 64
)

// Worker is a scheduling context bound to one goroutine of the team.
//
// Field layout is cacheline-conscious: the fields thieves read during steal
// sweeps (dq, and transitively the deque's top/bottom) are immutable
// pointers kept apart from the owner's frequently written scheduling state,
// so owner-side writes never invalidate the line a thief is polling.
type Worker struct {
	// Immutable after creation; read by thieves during steal sweeps.
	id   int
	team *Team
	dq   *deque.Deque[Task]
	// victims holds every other worker of the team, the list each steal
	// sweep walks from a random start. Set by newTeam and never changed;
	// empty on a single-worker team.
	victims []*Worker
	// tr is the telemetry tracer, nil when tracing is disabled. Immutable
	// after NewTeam; the worker only ever writes its own lane.
	tr *telemetry.Tracer
	_  [64]byte // keep owner-written state off the line thieves read

	// Owner-goroutine-only scheduling state: xorshift state for victim
	// selection and the task/latch free lists. No atomics needed.
	rng        uint64
	taskFree   *Task
	taskFreeN  int
	latchFree  *Latch
	latchFreeN int

	// c holds the monitoring counters on dedicated cache lines; written by
	// the owner, aggregated on read by Team.Counters.
	c wcounters
}

// ID returns the worker's index in [0, Team.Size()).
func (w *Worker) ID() int { return w.id }

// Team returns the team this worker belongs to.
func (w *Worker) Team() *Team { return w.team }

// Steals returns the number of successful steals performed by this worker.
func (w *Worker) Steals() int64 { return w.c.steals.Load() }

// Executed returns the number of tasks this worker has run.
func (w *Worker) Executed() int64 { return w.c.execs.Load() }

// getTask pops a task from the worker's free list, falling back to the heap.
func (w *Worker) getTask() *Task {
	if t := w.taskFree; t != nil {
		w.taskFree = t.next
		w.taskFreeN--
		t.next = nil
		w.c.taskHit.Add(1)
		return t
	}
	w.c.taskMiss.Add(1)
	//hbclint:ignore noalloc pool miss falls back to the heap by design, counted by taskMiss
	return new(Task)
}

// putTask recycles an executed task. Owner goroutine of w only; the task
// must not be referenced anywhere else (guaranteed by deque exclusivity).
//
//hbc:noalloc
func (w *Worker) putTask(t *Task) {
	if w.taskFreeN >= taskPoolCap {
		return
	}
	t.Run, t.Latch = nil, nil
	t.next = w.taskFree
	w.taskFree = t
	w.taskFreeN++
}

// NewLatch returns a latch that opens after n calls to Done, recycled from
// the worker's free list when possible. Pair with FreeLatch after the join.
func (w *Worker) NewLatch(n int) *Latch {
	if l := w.latchFree; l != nil {
		w.latchFree = l.next
		w.latchFreeN--
		w.c.latchHit.Add(1)
		l.reset(n)
		return l
	}
	w.c.latchMiss.Add(1)
	return NewLatch(n)
}

// FreeLatch recycles a latch obtained from NewLatch. The latch must have
// completed (the final Done's sentinel swap is its last access by any other
// goroutine, so a completed latch has no concurrent users). Freeing a latch
// that has not completed is refused rather than corrupting the pool.
//
//hbc:noalloc
func (w *Worker) FreeLatch(l *Latch) {
	if w.latchFreeN >= latchPoolCap || !l.Completed() {
		return
	}
	l.next = w.latchFree
	w.latchFree = l
	w.latchFreeN++
}

// Spawn pushes a task onto this worker's own deque, registering it with the
// latch. The caller must eventually join the latch.
//
// This is the promotion fast path: a pooled task, a push onto the owner's
// deque, a per-worker counter bump, and a single load of the idle count. No
// allocation, no channel operation, no shared-cacheline write.
//
//hbc:noalloc
func (w *Worker) Spawn(l *Latch, fn func(w *Worker)) {
	l.Add(1)
	t := w.getTask()
	t.Run, t.Latch = fn, l
	w.dq.PushBottom(t)
	w.c.spawned.Add(1)
	if w.team.nidle.Load() != 0 {
		w.team.signal()
	}
}

// HelpUntil keeps the worker executing available tasks (its own first, then
// stolen ones) until the latch opens, then re-raises the first panic any of
// the joined tasks suffered. This is the joining discipline of the runtime:
// the promoting worker typically pops right back the tasks it just forked,
// which is the clone-optimization fast path.
//
//hbc:noalloc
func (w *Worker) HelpUntil(l *Latch) {
	for !l.Completed() {
		if t := w.next(); t != nil {
			w.execute(t)
			continue
		}
		runtime.Gosched()
	}
	l.rethrow()
}

// next returns a runnable task: own deque, then steal sweeps over the other
// workers, then the team's external inbox. Deque work — the promoted slices
// already in flight — takes priority over new external submissions, so a
// submission burst cannot starve the tasks the heartbeat machinery is
// counting on being drained.
//
//hbc:noalloc
func (w *Worker) next() *Task {
	if t, ok := w.dq.PopBottom(); ok {
		return t
	}
	if t := w.steal(); t != nil {
		return t
	}
	select {
	case t := <-w.team.inbox:
		return t
	default:
	}
	return nil
}

// stealSweeps bounds the failed random-start sweeps over the victim list
// before next falls through to the inbox.
const stealSweeps = 2

// steal performs up to stealSweeps sweeps over the victims, each from a
// random start, recording how long a successful steal spent searching.
//
//hbc:noalloc
func (w *Worker) steal() *Task {
	n := len(w.victims)
	if n == 0 { // single-worker team: nothing to steal, skip the clock
		return nil
	}
	t0 := time.Now()
	for sweep := 0; sweep < stealSweeps; sweep++ {
		start := int(w.nextRand() % uint64(n))
		for i := 0; i < n; i++ {
			v := w.victims[(start+i)%n]
			if t, ok := v.dq.Steal(); ok {
				ns := int64(time.Since(t0))
				w.c.steals.Add(1)
				w.c.stealNS.Add(ns)
				w.tr.Emit(w.id, telemetry.KindSteal, int64(v.id), ns, 0, 0, 0)
				return t
			}
		}
	}
	return nil
}

func (w *Worker) nextRand() uint64 {
	// xorshift64*
	x := w.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	w.rng = x
	return x * 0x2545f4914f6cdd1d
}

// execute runs a task and signals its latch. The task object is recycled
// *before* the body runs: ownership is exclusive once popped or stolen, the
// needed fields are extracted, and freeing first lets a body that spawns
// reuse the very same object while it is hot in cache.
//
//hbc:noalloc
func (w *Worker) execute(t *Task) {
	w.c.execs.Add(1)
	run, l := t.Run, t.Latch
	w.putTask(t)
	if l == nil {
		run(w)
		return
	}
	//hbclint:ignore noalloc open-coded defer; the closure captures only l and stays on the stack
	defer func() {
		if v := recover(); v != nil {
			l.recordPanic(v)
		}
		l.Done()
	}()
	run(w)
}

// Parking parameters. A worker that finds no work spins (yielding) for
// spinBeforePark rounds, then parks on the wake channel. Wakeups are
// event-driven — Spawn and Run signal when (and only when) a worker is
// parked — so the timer is a safety net, not the wake mechanism: it bounds
// the stall if a steal was lost to a CAS race after the last signal, instead
// of the previous 100µs thundering timer that kept every idle worker hot.
const (
	spinBeforePark = 64
	parkFallback   = 5 * time.Millisecond
)

// loop is the worker's scheduling loop: execute available work, otherwise
// spin briefly, then park until a spawn signals, an external task arrives,
// or the fallback timer fires.
func (w *Worker) loop() {
	team := w.team
	defer team.wg.Done()
	var timer *time.Timer
	idle := 0
	for {
		if t := w.next(); t != nil {
			idle = 0
			w.execute(t)
			continue
		}
		select {
		case <-team.stop:
			return
		default:
		}
		idle++
		if idle < spinBeforePark {
			runtime.Gosched()
			continue
		}
		idle = 0
		// Park protocol: advertise idleness, then re-check for work. Spawn
		// publishes its task before loading nidle, and we bump nidle before
		// re-scanning, so (sequentially consistent atomics) either this scan
		// sees the task or the spawner sees nidle != 0 and signals. The
		// sawWork probe additionally refuses to park while any deque is
		// visibly non-empty — a steal that lost its CAS race is not proof of
		// emptiness.
		team.nidle.Add(1)
		if t := w.next(); t != nil {
			team.nidle.Add(-1)
			w.execute(t)
			continue
		}
		if w.sawWork() {
			team.nidle.Add(-1)
			continue
		}
		w.c.parks.Add(1)
		w.tr.Emit(w.id, telemetry.KindPark, 0, 0, 0, 0, 0)
		if timer == nil {
			timer = time.NewTimer(parkFallback)
		} else {
			timer.Reset(parkFallback)
		}
		fired := false
		select {
		case <-team.stop:
			team.nidle.Add(-1)
			timer.Stop()
			return
		case <-team.wake:
			w.c.wakes.Add(1)
			w.tr.Emit(w.id, telemetry.KindUnpark, telemetry.UnparkWake, 0, 0, 0, 0)
		case t := <-team.inbox:
			team.nidle.Add(-1)
			if !timer.Stop() {
				<-timer.C
			}
			w.tr.Emit(w.id, telemetry.KindUnpark, telemetry.UnparkInbox, 0, 0, 0, 0)
			w.execute(t)
			continue
		case <-timer.C:
			fired = true
			w.tr.Emit(w.id, telemetry.KindUnpark, telemetry.UnparkTimer, 0, 0, 0, 0)
		}
		team.nidle.Add(-1)
		if !fired && !timer.Stop() {
			<-timer.C
		}
	}
}

// sawWork reports whether any queue this worker could draw from is visibly
// non-empty: the team inbox or another worker's deque.
func (w *Worker) sawWork() bool {
	if len(w.team.inbox) > 0 {
		return true
	}
	for _, v := range w.victims {
		if !v.dq.Empty() {
			return true
		}
	}
	return false
}

// String identifies the worker in logs and test failures.
func (w *Worker) String() string { return fmt.Sprintf("worker-%d", w.id) }
