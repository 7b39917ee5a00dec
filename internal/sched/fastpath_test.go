package sched

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestRunCloseNoOrphans drives Run and Close concurrently and checks the
// deterministic contract: every Run either returns nil and its task ran, or
// returns ErrTeamClosed and its task never ran. A task submitted but never
// executed would hang its Run forever; a miscounted gate shows up as a
// ran/ok mismatch.
func TestRunCloseNoOrphans(t *testing.T) {
	const trials = 50
	const goroutines = 8
	for trial := 0; trial < trials; trial++ {
		team := NewTeam(2)
		var ran, ok int64
		var mu sync.Mutex
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				err := team.Run(func(w *Worker) {
					mu.Lock()
					ran++
					mu.Unlock()
				})
				switch {
				case err == nil:
					mu.Lock()
					ok++
					mu.Unlock()
				case !errors.Is(err, ErrTeamClosed):
					t.Errorf("trial %d: unexpected error %v", trial, err)
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			team.Close()
		}()
		close(start)
		wg.Wait()
		team.Close()
		mu.Lock()
		if ran != ok {
			t.Fatalf("trial %d: %d tasks ran but %d Runs returned nil", trial, ran, ok)
		}
		mu.Unlock()
	}
}

// TestNextPrefersDequeOverInbox pins the scheduling order of Worker.next:
// own deque (LIFO) first, then steals from every other worker, then the
// external inbox. An inbox burst must not starve in-flight promoted slices,
// and no victim may be skipped while its deque holds work.
func TestNextPrefersDequeOverInbox(t *testing.T) {
	team := newTeam(4) // workers not started; we drive next() by hand
	w0 := team.workers[0]

	order := []string{}
	mk := func(name string) *Task {
		return &Task{Run: func(w *Worker) { order = append(order, name) }}
	}

	team.inbox <- mk("I")
	for _, v := range team.workers[1:] {
		v.dq.PushBottom(mk(fmt.Sprintf("V%d", v.id)))
	}
	w0.dq.PushBottom(mk("A"))
	w0.dq.PushBottom(mk("B"))

	for i := 0; i < 6; i++ {
		task := w0.next()
		if task == nil {
			t.Fatalf("next() returned nil with work pending (step %d, order %v)", i, order)
		}
		task.Run(w0)
	}
	if w0.next() != nil {
		t.Fatal("next() returned a task after all work drained")
	}

	// The sweep's random start decides the victims' order, so check the
	// own-deque prefix and the inbox suffix exactly and the middle as a set.
	if order[0] != "B" || order[1] != "A" || order[5] != "I" {
		t.Fatalf("scheduling order = %v, want B A, then V1-V3 in any order, then I", order)
	}
	stolen := map[string]bool{}
	for _, name := range order[2:5] {
		stolen[name] = true
	}
	for _, v := range []string{"V1", "V2", "V3"} {
		if !stolen[v] {
			t.Fatalf("scheduling order = %v: victim %s not drained before the inbox", order, v)
		}
	}
	if c := w0.Counters(); c.Steals != 3 {
		t.Fatalf("w0 steals = %d, want 3", c.Steals)
	}
}

// TestLatchPoolReuse proves recycling a latch leaks neither its panic value
// nor its count into the next user.
func TestLatchPoolReuse(t *testing.T) {
	team := NewTeam(1)
	defer team.Close()
	err := team.Run(func(w *Worker) {
		l := w.NewLatch(1)
		w.Spawn(l, func(w *Worker) { panic("boom") })
		l.Done()
		func() {
			defer func() {
				if v := recover(); v != "boom" {
					t.Errorf("HelpUntil recovered %v, want boom", v)
				}
			}()
			w.HelpUntil(l)
		}()
		if l.pval.Load() == nil {
			t.Error("latch should hold the recorded panic before recycling")
		}
		w.FreeLatch(l)

		l2 := w.NewLatch(2)
		if l2 != l {
			t.Fatal("expected the recycled latch back from the free list")
		}
		if l2.pval.Load() != nil {
			t.Error("recycled latch leaked a panic value")
		}
		if got := l2.count.Load(); got != 2 {
			t.Errorf("recycled latch count = %d, want 2", got)
		}
		if l2.Completed() {
			t.Error("recycled latch is already completed")
		}
		l2.Done()
		l2.Done()
		w.HelpUntil(l2) // must not re-panic
		w.FreeLatch(l2)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFreeLatchRefusesIncomplete checks the pool guard: an unfinished latch
// must not enter the free list.
func TestFreeLatchRefusesIncomplete(t *testing.T) {
	team := NewTeam(1)
	defer team.Close()
	err := team.Run(func(w *Worker) {
		l := w.NewLatch(1)
		w.FreeLatch(l) // incomplete: refused
		l2 := w.NewLatch(1)
		if l2 == l {
			t.Error("incomplete latch was recycled")
		}
		l.Done()
		l2.Done()
		w.FreeLatch(l)
		w.FreeLatch(l2)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTaskPoolCounters checks hit/miss accounting on the task free list.
func TestTaskPoolCounters(t *testing.T) {
	team := NewTeam(1)
	defer team.Close()
	err := team.Run(func(w *Worker) {
		before := w.Counters()
		// Spawn three tasks before joining: the free list holds at most the
		// one recycled root task, so at least two spawns must miss.
		l := w.NewLatch(1)
		w.Spawn(l, func(w *Worker) {})
		w.Spawn(l, func(w *Worker) {})
		w.Spawn(l, func(w *Worker) {})
		l.Done()
		w.HelpUntil(l)
		w.FreeLatch(l)

		l = w.NewLatch(1)
		w.Spawn(l, func(w *Worker) {}) // hit: recycled by the joins above
		l.Done()
		w.HelpUntil(l)
		w.FreeLatch(l)

		d := w.Counters().Sub(before)
		if d.TaskPoolMisses < 2 {
			t.Errorf("TaskPoolMisses = %d, want >= 2", d.TaskPoolMisses)
		}
		if d.TaskPoolHits < 1 {
			t.Errorf("TaskPoolHits = %d, want >= 1", d.TaskPoolHits)
		}
		if d.LatchPoolHits < 1 {
			t.Errorf("LatchPoolHits = %d, want >= 1 (second NewLatch should recycle)", d.LatchPoolHits)
		}
		if d.Spawned != 4 || d.Executed != 4 {
			t.Errorf("Spawned/Executed = %d/%d, want 4/4", d.Spawned, d.Executed)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestIdleWorkersPark checks that idle workers leave the spin loop and park
// (the fix for the 100µs thundering-timer polling loop). Wake counts are not
// asserted: on a single-CPU machine a worker can drain the inbox before its
// sibling finishes parking, so wakes are timing-dependent.
func TestIdleWorkersPark(t *testing.T) {
	team := NewTeam(2)
	defer team.Close()
	time.Sleep(30 * time.Millisecond)
	c := team.Counters()
	if c.Parks == 0 {
		t.Error("idle workers never parked; spin loop is still hot-polling")
	}
	// The team must still respond promptly after parking.
	done := make(chan struct{})
	go func() {
		_ = team.Run(func(w *Worker) {})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("parked team did not wake for an external submission")
	}
}
