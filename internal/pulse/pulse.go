// Package pulse provides the heartbeat source of the runtime.
//
// Heartbeat scheduling needs a periodic event — the heartbeat — delivered to
// every worker at a fixed rate. The paper compares software polling with
// interrupt-style delivery (TPAL's ping thread, a Linux kernel module);
// Go cannot interrupt a goroutine at an arbitrary instruction, so this
// runtime uses software polling only: Timer, the worker itself reading the
// monotonic clock at promotion-ready program points (the analog of reading
// the x86 TSC). Manual is the deterministic source for tests and failure
// injection. Source is the seam through which a caller wraps or replaces
// the source (hbc.WithSourceWrapper).
package pulse

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Source generates heartbeats and answers worker polls. Attach must be
// called before the first Poll and Detach after the last; a Source may be
// re-attached for a subsequent run.
type Source interface {
	// Name identifies the mechanism in reports (e.g. "polling").
	Name() string
	// Attach prepares the source for the given number of workers and
	// heartbeat period, starting any goroutine the source needs.
	Attach(workers int, period time.Duration)
	// Poll is called by worker w at a promotion-ready point. It returns the
	// number of heartbeats that have arrived since this worker's previous
	// detection: 0 means no heartbeat, 1 a promptly-detected beat, and k>1
	// means k-1 beats were effectively missed (detected too late to act on).
	Poll(w int) int
	// Detach stops any goroutine Attach started and freezes statistics.
	Detach()
	// Stats returns cumulative delivery statistics since Attach.
	Stats() Stats
}

// Stats summarizes heartbeat generation and detection.
type Stats struct {
	// Generated is the number of heartbeats the source should have
	// delivered per worker (the ideal timeline for Timer), summed over
	// workers.
	Generated int64
	// Detected is the number of polls that observed at least one heartbeat.
	Detected int64
	// Missed is the number of heartbeats that were never acted upon: beats
	// observed late (k>1 in a single poll).
	Missed int64
	// Polls is the total number of Poll calls.
	Polls int64
	// LagMean and LagMax characterize detection lag — the time from a
	// beat's due moment to the poll that consumed it. This is the precision
	// metric behind the paper's mechanism comparison (§5.2); polling's lag
	// is bounded by the gap between promotion-ready points.
	LagMean time.Duration
	LagMax  time.Duration
}

// DetectionRate returns Detected/(Detected+Missed) as a percentage, the
// metric of the paper's Fig. 13. Returns 100 when no heartbeat was due.
func (s Stats) DetectionRate() float64 {
	total := s.Detected + s.Missed
	if total == 0 {
		return 100
	}
	return 100 * float64(s.Detected) / float64(total)
}

func (s Stats) String() string {
	return fmt.Sprintf("generated=%d detected=%d missed=%d polls=%d rate=%.1f%% lag(mean=%v max=%v)",
		s.Generated, s.Detected, s.Missed, s.Polls, s.DetectionRate(), s.LagMean, s.LagMax)
}

// pad prevents false sharing between per-worker slots hammered by polls:
// it rounds workerSlot up to 128 bytes, two cache lines, so adjacent-line
// prefetch does not couple neighbouring workers either. TestWorkerSlotPadded
// pins the size to a multiple of 64.
type pad struct{ _ [72]byte }

type workerSlot struct {
	deadline int64 // next heartbeat time (Timer) in ns since attach
	pending  int64 // beats fired but not yet polled (Manual)
	polls    int64
	detected int64
	missed   int64
	lagSum   int64 // ns
	lagMax   int64 // ns
	_        pad
}

// recordLag accumulates one detection-lag observation.
func recordLag(s *workerSlot, lag int64) {
	if lag < 0 {
		lag = 0
	}
	atomic.AddInt64(&s.lagSum, lag)
	for {
		m := atomic.LoadInt64(&s.lagMax)
		if lag <= m || atomic.CompareAndSwapInt64(&s.lagMax, m, lag) {
			return
		}
	}
}

// counters aggregates per-worker slots into Stats.
func aggregate(slots []workerSlot, generated int64) Stats {
	var s Stats
	var lagSum int64
	for i := range slots {
		s.Detected += atomic.LoadInt64(&slots[i].detected)
		s.Missed += atomic.LoadInt64(&slots[i].missed)
		s.Polls += atomic.LoadInt64(&slots[i].polls)
		lagSum += atomic.LoadInt64(&slots[i].lagSum)
		if m := time.Duration(atomic.LoadInt64(&slots[i].lagMax)); m > s.LagMax {
			s.LagMax = m
		}
	}
	s.Generated = generated
	if s.Detected > 0 {
		s.LagMean = time.Duration(lagSum / s.Detected)
	}
	return s
}
