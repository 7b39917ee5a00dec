package sched

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestRunExecutesTask(t *testing.T) {
	team := NewTeam(2)
	defer team.Close()
	var ran atomic.Bool
	team.Run(func(w *Worker) { ran.Store(true) })
	if !ran.Load() {
		t.Fatal("root task did not run")
	}
}

func TestSpawnAndJoin(t *testing.T) {
	team := NewTeam(4)
	defer team.Close()
	const n = 100
	var count atomic.Int64
	team.Run(func(w *Worker) {
		l := NewLatch(1) // guard count held while spawning
		for i := 0; i < n; i++ {
			w.Spawn(l, func(w *Worker) { count.Add(1) })
		}
		l.Done()
		w.HelpUntil(l)
	})
	if got := count.Load(); got != n {
		t.Fatalf("count = %d, want %d", got, n)
	}
}

func TestNestedForkJoin(t *testing.T) {
	team := NewTeam(3)
	defer team.Close()
	var total atomic.Int64
	// Recursive fork-join: fib-shaped task tree.
	var rec func(w *Worker, depth int)
	rec = func(w *Worker, depth int) {
		total.Add(1)
		if depth == 0 {
			return
		}
		l := NewLatch(1)
		w.Spawn(l, func(w *Worker) { rec(w, depth-1) })
		w.Spawn(l, func(w *Worker) { rec(w, depth-1) })
		l.Done()
		w.HelpUntil(l)
	}
	team.Run(func(w *Worker) { rec(w, 10) })
	if got := total.Load(); got != 2048-1+1024 { // 2^11 - 1 nodes... computed below
		// Nodes in a full binary tree of depth 10 (depth counts edges): 2^11 - 1.
		if got != 2047 {
			t.Fatalf("total = %d, want 2047", got)
		}
	}
}

func TestWorkIsStolen(t *testing.T) {
	team := NewTeam(4)
	defer team.Close()
	var spin atomic.Int64
	team.Run(func(w *Worker) {
		l := NewLatch(1)
		for i := 0; i < 64; i++ {
			w.Spawn(l, func(w *Worker) {
				// Enough work that thieves have time to engage.
				for j := 0; j < 20000; j++ {
					spin.Add(1)
				}
			})
		}
		l.Done()
		w.HelpUntil(l)
	})
	var steals int64
	for i := 0; i < team.Size(); i++ {
		steals += team.Worker(i).Steals()
	}
	// On a single-core host steals can legitimately be zero (the owner often
	// drains its own deque before thieves get scheduled), so only check the
	// accounting invariant: every task ran exactly once.
	if got := spin.Load(); got != 64*20000 {
		t.Fatalf("spin = %d, want %d (steals=%d)", got, 64*20000, steals)
	}
}

func TestSequentialRunsOnTeam(t *testing.T) {
	team := NewTeam(2)
	defer team.Close()
	for i := 0; i < 50; i++ {
		got := 0
		team.Run(func(w *Worker) { got = i * 2 })
		if got != i*2 {
			t.Fatalf("run %d: got %d", i, got)
		}
	}
}

func TestLatchZeroOpensImmediately(t *testing.T) {
	l := NewLatch(0)
	if !l.Completed() {
		t.Fatal("zero latch should be complete")
	}
	l.Wait() // must not block
}

func TestLatchCountdown(t *testing.T) {
	l := NewLatch(3)
	if l.Completed() {
		t.Fatal("latch complete too early")
	}
	l.Done()
	l.Done()
	if l.Completed() {
		t.Fatal("latch complete after 2 of 3")
	}
	l.Done()
	if !l.Completed() {
		t.Fatal("latch not complete after 3 of 3")
	}
}

func TestLatchDonePanicsWhenOverdrawn(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l := NewLatch(0)
	l.Done()
}

// TestQuickForkJoinSums forks a random tree of additions and checks the sum,
// under varying team sizes.
func TestQuickForkJoinSums(t *testing.T) {
	f := func(vals []int32, teamSize uint8) bool {
		n := int(teamSize%4) + 1
		team := NewTeam(n)
		defer team.Close()
		var sum atomic.Int64
		team.Run(func(w *Worker) {
			l := NewLatch(1)
			for _, v := range vals {
				v := v
				w.Spawn(l, func(w *Worker) { sum.Add(int64(v)) })
			}
			l.Done()
			w.HelpUntil(l)
		})
		var want int64
		for _, v := range vals {
			want += int64(v)
		}
		return sum.Load() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCloseIdempotent(t *testing.T) {
	team := NewTeam(2)
	team.Close()
	team.Close() // must not panic or hang
}

func TestRunOnClosedTeamReturnsError(t *testing.T) {
	team := NewTeam(2)
	if team.Closed() {
		t.Fatal("fresh team reports closed")
	}
	if err := team.Run(func(w *Worker) {}); err != nil {
		t.Fatalf("Run on a live team: %v", err)
	}
	team.Close()
	if !team.Closed() {
		t.Fatal("closed team reports open")
	}
	var ran atomic.Bool
	if err := team.Run(func(w *Worker) { ran.Store(true) }); err != ErrTeamClosed {
		t.Fatalf("Run on a closed team = %v, want ErrTeamClosed", err)
	}
	if ran.Load() {
		t.Fatal("task ran on a closed team")
	}
}

func TestPanicPropagatesThroughHelpUntil(t *testing.T) {
	team := NewTeam(2)
	defer team.Close()
	var caught any
	team.Run(func(w *Worker) {
		defer func() { caught = recover() }()
		l := NewLatch(1)
		w.Spawn(l, func(w *Worker) { panic("task boom") })
		l.Done()
		w.HelpUntil(l)
	})
	if caught != "task boom" {
		t.Fatalf("caught = %v, want task boom", caught)
	}
}

func TestPanicPropagatesThroughTeamRun(t *testing.T) {
	team := NewTeam(2)
	defer team.Close()
	defer func() {
		if recover() != "root boom" {
			t.Fatal("root panic did not reach Run caller")
		}
	}()
	team.Run(func(w *Worker) { panic("root boom") })
}

func TestFirstPanicWins(t *testing.T) {
	team := NewTeam(1)
	defer team.Close()
	var caught any
	team.Run(func(w *Worker) {
		defer func() { caught = recover() }()
		l := NewLatch(1)
		for i := 0; i < 5; i++ {
			i := i
			w.Spawn(l, func(w *Worker) { panic(i) })
		}
		l.Done()
		w.HelpUntil(l)
	})
	if _, ok := caught.(int); !ok {
		t.Fatalf("caught %v (%T), want an int", caught, caught)
	}
}

func TestPanicStillCompletesSiblings(t *testing.T) {
	// A panicking task must not prevent its siblings from running before
	// the join opens.
	team := NewTeam(2)
	defer team.Close()
	var ran atomic.Int64
	team.Run(func(w *Worker) {
		defer func() { recover() }()
		l := NewLatch(1)
		w.Spawn(l, func(w *Worker) { panic("x") })
		for i := 0; i < 20; i++ {
			w.Spawn(l, func(w *Worker) { ran.Add(1) })
		}
		l.Done()
		w.HelpUntil(l)
	})
	if ran.Load() != 20 {
		t.Fatalf("siblings ran %d, want 20", ran.Load())
	}
}

func TestWorkerMonitoringCounters(t *testing.T) {
	team := NewTeam(2)
	defer team.Close()
	team.Run(func(w *Worker) {
		l := NewLatch(1)
		for i := 0; i < 10; i++ {
			w.Spawn(l, func(w *Worker) {})
		}
		l.Done()
		w.HelpUntil(l)
	})
	var execs int64
	for i := 0; i < team.Size(); i++ {
		execs += team.Worker(i).Executed()
	}
	if execs != 11 { // root + 10 children
		t.Fatalf("executed = %d, want 11", execs)
	}
	if team.Spawned() != 11 {
		t.Fatalf("spawned = %d, want 11", team.Spawned())
	}
	if s := team.Worker(0).String(); s != "worker-0" {
		t.Fatalf("String = %q", s)
	}
}
