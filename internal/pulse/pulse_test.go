package pulse

import (
	"testing"
	"time"
	"unsafe"
)

// pollUntil polls worker w until a beat is seen or the deadline passes.
func pollUntil(t *testing.T, s Source, w int, deadline time.Duration) int {
	t.Helper()
	t0 := time.Now()
	for time.Since(t0) < deadline {
		if k := s.Poll(w); k > 0 {
			return k
		}
		time.Sleep(10 * time.Microsecond)
	}
	return 0
}

// TestTimerFiresAtRate checks the beat count against the time the polling
// loop actually ran, not a nominal window: a stall anywhere in the loop
// moves the expected count together with the observed one. The timeline
// starts inside Attach, and a poll reads the clock between before and
// after, so the beats seen up to that poll are exactly ⌊(poll − start) /
// period⌋, which lies in [⌊(before − attach) / period⌋, ⌊after / period⌋].
// Checked after every poll, so a detection that reports the wrong number
// of beats fails even when later deadlines make up for it.
func TestTimerFiresAtRate(t *testing.T) {
	const period = time.Millisecond
	s := NewTimer()
	t0 := time.Now()
	s.Attach(1, period)
	attach := time.Since(t0)
	defer s.Detach()
	beats := 0
	for after := time.Duration(0); after < 20*period; {
		before := time.Since(t0)
		beats += s.Poll(0)
		after = time.Since(t0)
		if lo, hi := int((before-attach)/period), int(after/period); beats < lo || beats > hi {
			t.Fatalf("beats = %d after polling for %v at %v period, want %d..%d", beats, after, period, lo, hi)
		}
	}
	st := s.Stats()
	if st.Polls == 0 || st.Detected == 0 {
		t.Fatalf("stats not accumulated: %v", st)
	}
}

func TestTimerCountsMissedBeats(t *testing.T) {
	s := NewTimer()
	s.Attach(1, time.Millisecond)
	defer s.Detach()
	time.Sleep(5 * time.Millisecond) // let ~5 beats pass unobserved
	k := s.Poll(0)
	if k < 4 {
		t.Fatalf("Poll after sleeping 5 periods = %d, want >= 4", k)
	}
	st := s.Stats()
	if st.Missed < 3 {
		t.Fatalf("Missed = %d, want >= 3", st.Missed)
	}
	if st.Detected != 1 {
		t.Fatalf("Detected = %d, want 1", st.Detected)
	}
}

// TestTimerDetachFreezesStats checks Source.Detach's contract on Timer:
// once detached, Stats stops moving — Generated included, though the clock
// keeps running.
func TestTimerDetachFreezesStats(t *testing.T) {
	const period = time.Millisecond
	tm := NewTimer()
	tm.Attach(2, period)
	pollUntil(t, tm, 0, 50*period)
	tm.Detach()
	before := tm.Stats()
	time.Sleep(3 * period)
	if after := tm.Stats(); after != before {
		t.Fatalf("Stats moved after Detach: %+v, then %+v", before, after)
	}
}

func TestTimerPerWorkerIndependent(t *testing.T) {
	s := NewTimer()
	s.Attach(2, time.Millisecond)
	defer s.Detach()
	time.Sleep(2 * time.Millisecond)
	if k := s.Poll(0); k == 0 {
		t.Fatal("worker 0 should see a beat")
	}
	// Worker 1's timeline is untouched by worker 0's detection.
	if k := s.Poll(1); k == 0 {
		t.Fatal("worker 1 should see its own beat")
	}
}

func TestManualDeterministic(t *testing.T) {
	s := NewManual()
	s.Attach(2, 0)
	if s.Poll(0) != 0 {
		t.Fatal("manual fired without Fire")
	}
	s.Fire(0)
	if s.Poll(0) != 1 {
		t.Fatal("manual did not deliver fired beat")
	}
	if s.Poll(1) != 0 {
		t.Fatal("beat leaked to wrong worker")
	}
	s.FireAll()
	if s.Poll(0) != 1 || s.Poll(1) != 1 {
		t.Fatal("FireAll did not reach both workers")
	}
}

func TestManualAlwaysAndEveryN(t *testing.T) {
	a := NewAlways()
	a.Attach(1, 0)
	for i := 0; i < 5; i++ {
		if a.Poll(0) != 1 {
			t.Fatal("Always source must fire every poll")
		}
	}
	e := NewEveryN(3)
	e.Attach(1, 0)
	fired := 0
	for i := 0; i < 9; i++ {
		fired += e.Poll(0)
	}
	if fired != 3 {
		t.Fatalf("EveryN(3) fired %d times in 9 polls, want 3", fired)
	}
}

func TestDetectionRateEdgeCases(t *testing.T) {
	if r := (Stats{}).DetectionRate(); r != 100 {
		t.Fatalf("empty stats rate = %v, want 100", r)
	}
	if r := (Stats{Detected: 3, Missed: 1}).DetectionRate(); r != 75 {
		t.Fatalf("rate = %v, want 75", r)
	}
}

func TestReattach(t *testing.T) {
	for _, src := range []Source{NewTimer(), NewManual()} {
		src.Attach(1, time.Millisecond)
		src.Poll(0)
		src.Detach()
		src.Attach(2, time.Millisecond)
		src.Poll(1)
		src.Detach()
		if st := src.Stats(); st.Polls != 1 {
			t.Fatalf("%s: stats not reset on re-attach: %v", src.Name(), st)
		}
	}
}

func BenchmarkTimerPoll(b *testing.B) {
	s := NewTimer()
	s.Attach(1, 100*time.Microsecond)
	defer s.Detach()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Poll(0)
	}
}

// TestLagRecordedByAllSources checks detection lag on the runtime's one
// heartbeat source, Timer.
func TestLagRecordedByAllSources(t *testing.T) {
	src := NewTimer()
	src.Attach(1, time.Millisecond)
	if pollUntil(t, src, 0, 300*time.Millisecond) == 0 {
		src.Detach()
		t.Fatal("no beat observed")
	}
	st := src.Stats()
	src.Detach()
	if st.LagMax <= 0 {
		t.Errorf("LagMax = %v, want > 0", st.LagMax)
	}
	if st.LagMean < 0 || st.LagMean > st.LagMax {
		t.Errorf("LagMean %v outside [0, %v]", st.LagMean, st.LagMax)
	}
}

func TestTimerLagBoundedByPollGap(t *testing.T) {
	// Polling every ~50µs against a 1ms period: detection lag must stay
	// well under the period (it is bounded by the poll gap plus scheduling
	// noise).
	s := NewTimer()
	s.Attach(1, time.Millisecond)
	defer s.Detach()
	t0 := time.Now()
	for time.Since(t0) < 30*time.Millisecond {
		s.Poll(0)
		time.Sleep(50 * time.Microsecond)
	}
	st := s.Stats()
	if st.Detected == 0 {
		t.Fatal("no beats detected")
	}
	if st.LagMean > 5*time.Millisecond {
		t.Fatalf("LagMean = %v, want well under a few ms", st.LagMean)
	}
}

// TestWorkerSlotPadded pins the false-sharing pad: each worker's slot must
// fill whole cache lines, so a field added to or dropped from workerSlot
// without resizing pad fails here instead of silently sharing a line
// between two workers' polls.
func TestWorkerSlotPadded(t *testing.T) {
	if size := unsafe.Sizeof(workerSlot{}); size%64 != 0 {
		t.Fatalf("unsafe.Sizeof(workerSlot{}) = %d, want a multiple of 64", size)
	}
}

func TestStatsStringMentionsLag(t *testing.T) {
	s := Stats{Detected: 1, LagMean: time.Microsecond, LagMax: 2 * time.Microsecond}
	if got := s.String(); !contains(got, "lag") {
		t.Fatalf("Stats.String missing lag: %s", got)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
