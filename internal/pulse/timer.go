package pulse

import (
	"sync/atomic"
	"time"
)

// Timer is the default software-polling source: every poll reads the
// monotonic clock and compares it against the worker's next heartbeat
// deadline. This is the closest Go analog of the paper's TSC-register poll
// (time.Now on Linux is a VDSO call of a few tens of nanoseconds, the same
// order as RDTSC plus the compare). No signaling goroutine exists, so the
// mechanism needs no OS or scheduler support — the property the paper
// credits for software polling's portability.
type Timer struct {
	period int64 // ns
	start  time.Time
	slots  []workerSlot
	// frozen is the elapsed time at Detach, which Stats reads in place of
	// the clock once detached; 0 while attached.
	frozen atomic.Int64
}

// NewTimer returns an unattached Timer source.
func NewTimer() *Timer { return &Timer{} }

// Name implements Source.
func (t *Timer) Name() string { return "polling" }

// Attach implements Source.
func (t *Timer) Attach(workers int, period time.Duration) {
	t.period = int64(period)
	t.start = time.Now()
	t.slots = make([]workerSlot, workers)
	for i := range t.slots {
		t.slots[i].deadline = t.period
	}
	t.frozen.Store(0)
}

// Poll implements Source. Each worker runs on its own beat timeline anchored
// at Attach time, mirroring per-core TSC deadlines.
func (t *Timer) Poll(w int) int {
	s := &t.slots[w]
	atomic.AddInt64(&s.polls, 1)
	now := int64(time.Since(t.start))
	if now < s.deadline {
		return 0
	}
	k := (now-s.deadline)/t.period + 1
	recordLag(s, now-s.deadline)
	s.deadline += k * t.period // owner-only field; no atomics needed
	atomic.AddInt64(&s.detected, 1)
	atomic.AddInt64(&s.missed, k-1)
	return int(k)
}

// Detach implements Source. It freezes Generated at the beats due so far.
func (t *Timer) Detach() { t.frozen.Store(max(int64(time.Since(t.start)), 1)) }

// Stats implements Source. Generated counts the ideal per-worker beat
// timelines up to now, or up to Detach once detached.
func (t *Timer) Stats() Stats {
	elapsed := t.frozen.Load()
	if elapsed == 0 {
		elapsed = int64(time.Since(t.start))
	}
	perWorker := elapsed / t.period
	return aggregate(t.slots, perWorker*int64(len(t.slots)))
}
