package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"hbc/internal/loopnest"
	"hbc/internal/pulse"
	"hbc/internal/sched"
)

// faultNest builds a 4×8 nest whose inner body counts covered iterations and
// panics when it reaches the (outer, inner) index held in trap (nil = never).
func faultNest(covered *atomic.Int64, trap *[2]int64) *loopnest.Nest {
	inner := &loopnest.Loop{
		Name:   "inner",
		Bounds: func(any, []int64) (int64, int64) { return 0, 8 },
		Body: func(_ any, idx []int64, lo, hi int64, _ any) {
			if trap != nil {
				for i := lo; i < hi; i++ {
					if idx[0] == trap[0] && i == trap[1] {
						panic("trapped")
					}
				}
			}
			covered.Add(hi - lo)
		},
	}
	outer := &loopnest.Loop{
		Name:     "outer",
		Bounds:   func(any, []int64) (int64, int64) { return 0, 4 },
		Children: []*loopnest.Loop{inner},
	}
	return &loopnest.Nest{Name: "fault", Root: outer}
}

// oneShotExec compiles nest for a 1-worker team polling a Manual source with
// exactly one pending beat: one promotion happens at the first safepoint
// (after iteration (0,0) under StaticChunk 1), and none after. The caller owns
// team.Close.
func oneShotExec(t *testing.T, nest *loopnest.Nest) (*Exec, *sched.Team) {
	t.Helper()
	p, err := Compile(nest, Options{StaticChunk: 1})
	if err != nil {
		t.Fatal(err)
	}
	team := sched.NewTeam(1)
	src := pulse.NewManual()
	src.Attach(1, time.Millisecond)
	src.Fire(0)
	return NewExecShared(p, team, src, time.Millisecond, nil), team
}

// TestPanicInLeftoverTask drives a panic into the leftover task of a
// promotion: the single pending beat promotes the outer loop at (0,0), the
// leftover resumes inner iterations 1..8 of outer 0, and iteration (0,5)
// panics inside it. The typed error must attribute the leftover's own loop
// position, not the promoting task's.
func TestPanicInLeftoverTask(t *testing.T) {
	var covered atomic.Int64
	trap := [2]int64{0, 5}
	x, team := oneShotExec(t, faultNest(&covered, &trap))
	defer team.Close()

	_, err := x.RunCtx(context.Background())
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("RunCtx error = %v (%T), want *PanicError", err, err)
	}
	if x.Stats().LeftoverRuns() < 1 {
		t.Fatal("no leftover task ran; the fault was not injected into one")
	}
	if pe.Loop != (LoopID{Level: 1, Index: 0}) || pe.LoopName != "inner" {
		t.Fatalf("fault attributed to loop %v %q, want (1,0) \"inner\"", pe.Loop, pe.LoopName)
	}
	if len(pe.Indices) != 2 || pe.Indices[0] != 0 || pe.Indices[1] != 5 {
		t.Fatalf("Indices = %v, want [0 5]", pe.Indices)
	}
	if pe.Value != "trapped" {
		t.Fatalf("Value = %v, want the original panic value", pe.Value)
	}
	// The promotion's sibling slices observed the abort at their first
	// safepoint: only (0,0) and the leftover's 1..4 ran.
	if got := covered.Load(); got != 5 {
		t.Fatalf("covered %d iterations, want 5", got)
	}
}

// TestPanicInForkedSliceThroughJoin drives the panic into a promoted
// loop-slice task instead: the promoting task is parked in HelpUntil when
// slice [2,4) panics at (2,0), so the typed error travels through the
// helping join and the promoter's own guard unchanged.
func TestPanicInForkedSliceThroughJoin(t *testing.T) {
	var covered atomic.Int64
	trap := [2]int64{2, 0}
	x, team := oneShotExec(t, faultNest(&covered, &trap))
	defer team.Close()

	_, err := x.RunCtx(context.Background())
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("RunCtx error = %v (%T), want *PanicError", err, err)
	}
	if pe.Loop != (LoopID{Level: 1, Index: 0}) {
		t.Fatalf("fault attributed to loop %v, want (1,0)", pe.Loop)
	}
	if len(pe.Indices) != 2 || pe.Indices[0] != 2 || pe.Indices[1] != 0 {
		t.Fatalf("Indices = %v, want [2 0]", pe.Indices)
	}
	// The single worker drains its deque LIFO: the leftover (inner 1..8 of
	// outer 0) completes, then slice [2,4) panics at once, then slice [1,2)
	// sees the abort flag and runs nothing. (0,0) + 7 = 8.
	if got := covered.Load(); got != 8 {
		t.Fatalf("covered %d iterations, want 8", got)
	}
}

// TestPanicInBoundsStopsAtEnclosingLevel makes the inner loop's Bounds
// panic when outer index 2 sets it up. The invocation has no index of its
// own yet, so the snapshot ends at the outer loop's: Indices is [2], not
// [2] plus whatever the previous inner invocation left behind.
func TestPanicInBoundsStopsAtEnclosingLevel(t *testing.T) {
	inner := &loopnest.Loop{
		Name: "inner",
		Bounds: func(_ any, idx []int64) (int64, int64) {
			if idx[0] == 2 {
				panic("bad bounds")
			}
			return 0, 8
		},
		Body: func(any, []int64, int64, int64, any) {},
	}
	nest := &loopnest.Nest{Name: "bounds", Root: &loopnest.Loop{
		Name:     "outer",
		Bounds:   func(any, []int64) (int64, int64) { return 0, 4 },
		Children: []*loopnest.Loop{inner},
	}}
	p, err := Compile(nest, Options{})
	if err != nil {
		t.Fatal(err)
	}
	team := sched.NewTeam(1)
	defer team.Close()
	x := NewExec(p, team, pulse.NewNever(), time.Millisecond, nil)
	x.Start()
	defer x.Stop()

	_, err = x.RunCtx(context.Background())
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("RunCtx error = %v (%T), want *PanicError", err, err)
	}
	if pe.Loop != (LoopID{Level: 1, Index: 0}) || pe.LoopName != "inner" {
		t.Fatalf("fault attributed to loop %v %q, want (1,0) \"inner\"", pe.Loop, pe.LoopName)
	}
	if len(pe.Indices) != 1 || pe.Indices[0] != 2 {
		t.Fatalf("Indices = %v, want [2]", pe.Indices)
	}
}

// TestExecReusableAfterPanic re-runs the same Exec after a contained panic;
// the abort must not poison the executor, its team, or its source.
func TestExecReusableAfterPanic(t *testing.T) {
	var covered atomic.Int64
	var armed atomic.Bool
	armed.Store(true)
	nest := &loopnest.Nest{
		Name: "rearm",
		Root: &loopnest.Loop{
			Name:   "root",
			Bounds: func(any, []int64) (int64, int64) { return 0, 64 },
			Body: func(_ any, _ []int64, lo, hi int64, _ any) {
				if armed.Load() && lo >= 32 {
					panic("armed")
				}
				covered.Add(hi - lo)
			},
		},
	}
	p, err := Compile(nest, Options{StaticChunk: 4})
	if err != nil {
		t.Fatal(err)
	}
	team := sched.NewTeam(2)
	defer team.Close()
	src := pulse.NewEveryN(2)
	src.Attach(2, time.Millisecond)
	defer src.Detach()
	x := NewExecShared(p, team, src, time.Millisecond, nil)

	if _, err := x.RunCtx(context.Background()); err == nil {
		t.Fatal("armed run did not fail")
	}
	armed.Store(false)
	covered.Store(0)
	if _, err := x.RunCtx(context.Background()); err != nil {
		t.Fatalf("re-run after contained panic: %v", err)
	}
	if got := covered.Load(); got != 64 {
		t.Fatalf("re-run covered %d of 64 iterations", got)
	}
}

// slowNest yields a 1-level nest whose every iteration sleeps, so a run is
// comfortably outlived by a context deadline.
func slowNest(covered *atomic.Int64, started chan<- struct{}) *loopnest.Nest {
	var once atomic.Bool
	return &loopnest.Nest{
		Name: "slow",
		Root: &loopnest.Loop{
			Name:   "root",
			Bounds: func(any, []int64) (int64, int64) { return 0, 10000 },
			Body: func(_ any, _ []int64, lo, hi int64, _ any) {
				if started != nil && once.CompareAndSwap(false, true) {
					close(started)
				}
				time.Sleep(50 * time.Microsecond)
				covered.Add(hi - lo)
			},
		},
	}
}

func TestRunCtxCancelStopsMidRun(t *testing.T) {
	var covered atomic.Int64
	started := make(chan struct{})
	p := MustCompile(slowNest(&covered, started), Options{StaticChunk: 1})
	team := sched.NewTeam(2)
	defer team.Close()
	src := pulse.NewTimer()
	src.Attach(2, 100*time.Microsecond)
	defer src.Detach()
	x := NewExecShared(p, team, src, 100*time.Microsecond, nil)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-started
		cancel()
	}()
	t0 := time.Now()
	_, err := x.RunCtx(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCtx = %v, want context.Canceled", err)
	}
	if covered.Load() == 0 {
		t.Fatal("cancelled before any iteration ran")
	}
	if covered.Load() >= 10000 {
		t.Fatal("run completed despite cancellation")
	}
	// 10000 × 50µs of body time remained; a prompt abort beats it easily.
	if el := time.Since(t0); el > 250*time.Millisecond {
		t.Fatalf("cancellation took %v", el)
	}
}

func TestRunCtxDeadline(t *testing.T) {
	var covered atomic.Int64
	p := MustCompile(slowNest(&covered, nil), Options{StaticChunk: 1})
	team := sched.NewTeam(2)
	defer team.Close()
	src := pulse.NewTimer()
	src.Attach(2, 100*time.Microsecond)
	defer src.Detach()
	x := NewExecShared(p, team, src, 100*time.Microsecond, nil)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	if _, err := x.RunCtx(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RunCtx = %v, want context.DeadlineExceeded", err)
	}

	// An already-expired context fails before any iteration runs.
	covered.Store(0)
	expired, cancel2 := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel2()
	time.Sleep(time.Millisecond)
	if _, err := x.RunCtx(expired); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired ctx: RunCtx = %v", err)
	}
	if covered.Load() != 0 {
		t.Fatalf("expired ctx still ran %d iterations", covered.Load())
	}
}

func TestRunCtxBeforeStart(t *testing.T) {
	var covered atomic.Int64
	p := MustCompile(faultNest(&covered, nil), Options{})
	team := sched.NewTeam(1)
	defer team.Close()
	x := NewExec(p, team, pulse.NewTimer(), time.Millisecond, nil)

	if _, err := x.RunCtx(context.Background()); !errors.Is(err, ErrNotStarted) {
		t.Fatalf("RunCtx before Start = %v, want ErrNotStarted", err)
	}
	x.Start()
	x.Start() // idempotent
	if _, err := x.RunCtx(context.Background()); err != nil {
		t.Fatalf("RunCtx after Start: %v", err)
	}
	x.Stop()
	x.Stop() // idempotent
	if _, err := x.RunCtx(context.Background()); !errors.Is(err, ErrNotStarted) {
		t.Fatalf("RunCtx after Stop = %v, want ErrNotStarted", err)
	}
}

// goroutineSource is a heartbeat source with a helper goroutine that Attach
// starts and Detach stops, as a source passed in through
// hbc.WithSourceWrapper may have. live counts helpers still running.
type goroutineSource struct {
	pulse.Source
	live       atomic.Int64
	stop, done chan struct{}
}

func (s *goroutineSource) Attach(workers int, period time.Duration) {
	s.Source.Attach(workers, period)
	stop, done := make(chan struct{}), make(chan struct{})
	s.stop, s.done = stop, done
	s.live.Add(1)
	go func() {
		<-stop
		s.live.Add(-1)
		close(done)
	}()
}

func (s *goroutineSource) Detach() {
	close(s.stop)
	<-s.done
	s.Source.Detach()
}

// TestRunDetachesSourceOnPanic is the leak-guard regression test: a Run that
// unwinds with a panic must not strand the heartbeat source it attached —
// callers without a deferred Stop would otherwise leak any goroutine the
// source started.
func TestRunDetachesSourceOnPanic(t *testing.T) {
	var covered atomic.Int64
	trap := [2]int64{0, 0}
	p := MustCompile(faultNest(&covered, &trap), Options{})
	team := sched.NewTeam(1)
	defer team.Close()
	src := &goroutineSource{Source: pulse.NewManual()} // leaks if left attached
	x := NewExec(p, team, src, time.Millisecond, nil)
	x.Start()

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Run did not panic")
			}
		}()
		x.Run()
	}()
	if x.started {
		t.Fatal("failed Run left the source attached")
	}
	if n := src.live.Load(); n != 0 {
		t.Fatalf("source goroutine leaked after failed Run: %d still running", n)
	}
	// The Exec restarts cleanly after the failure-path Stop.
	x.Start()
	defer x.Stop()
	trap[0] = -1
	if _, err := x.RunCtx(context.Background()); err != nil {
		t.Fatalf("restart after failed Run: %v", err)
	}
}
