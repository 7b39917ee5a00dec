package hbc

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"hbc/internal/pulse"
)

// trapNest builds a 2-level nest whose body counts coverage and panics at
// the given flat iteration number (0 = never).
func trapNest(covered *atomic.Int64, trapAt int64) *Nest {
	return &Nest{
		Name: "trap",
		Root: &Loop{
			Name:   "rows",
			Bounds: RangeN(64),
			Children: []*Loop{{
				Name:   "cols",
				Bounds: RangeN(64),
				Body: func(_ any, _ []int64, lo, hi int64, _ any) {
					n := covered.Add(hi - lo)
					if trapAt > 0 && n >= trapAt {
						panic("trap sprung")
					}
				},
			}},
		},
	}
}

func TestRunCtxReturnsTypedPanicError(t *testing.T) {
	team := testTeam(t, 4)
	var covered atomic.Int64
	prog := MustCompile(trapNest(&covered, 64*32), Config{})
	r := team.Load(prog, nil)
	defer r.Close()

	_, err := r.RunCtx(context.Background())
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("RunCtx error = %v (%T), want *hbc.PanicError", err, err)
	}
	if pe.LoopName != "cols" {
		t.Fatalf("fault attributed to loop %q, want \"cols\"", pe.LoopName)
	}
	if pe.Value != "trap sprung" {
		t.Fatalf("PanicError.Value = %v", pe.Value)
	}

	// The Runner stays usable: a fresh run past the trap is exact.
	covered.Store(-1 << 40) // keep the counter far below the trap threshold
	if _, err := r.RunCtx(context.Background()); err != nil {
		t.Fatalf("re-run after contained panic: %v", err)
	}
	if got := covered.Load() - (-1 << 40); got != 64*64 {
		t.Fatalf("re-run covered %d of %d iterations", got, 64*64)
	}
}

func TestRunCtxDeadlineCancelsRun(t *testing.T) {
	team := testTeam(t, 2)
	var covered atomic.Int64
	nest := &Nest{
		Name: "slow",
		Root: &Loop{
			Name:   "root",
			Bounds: RangeN(100000),
			Body: func(_ any, _ []int64, lo, hi int64, _ any) {
				time.Sleep(20 * time.Microsecond)
				covered.Add(hi - lo)
			},
		},
	}
	r := team.Load(MustCompile(nest, Config{Sched: "none"}), nil)
	defer r.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	if _, err := r.RunCtx(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RunCtx = %v, want context.DeadlineExceeded", err)
	}
	if got := covered.Load(); got == 0 || got >= 100000 {
		t.Fatalf("covered %d iterations, want a partial run", got)
	}
}

func TestRunOnClosedTeamReturnsErrTeamClosed(t *testing.T) {
	team := NewTeam(Workers(2))
	var covered atomic.Int64
	r := team.Load(MustCompile(trapNest(&covered, 0), Config{}), nil)
	defer r.Close()
	team.Close()

	if _, err := r.RunCtx(context.Background()); !errors.Is(err, ErrTeamClosed) {
		t.Fatalf("RunCtx on closed team = %v, want ErrTeamClosed", err)
	}
}

// TestFailedRunReleasesSignalGoroutine is the leak regression test: a Run
// that panics must detach its heartbeat source even though the caller never
// reaches Close, releasing the ping goroutine the source started.
func TestFailedRunReleasesSignalGoroutine(t *testing.T) {
	team := NewTeam(Workers(2), WithSignal(SignalPing), Heartbeat(100*time.Microsecond))
	defer team.Close()
	baseline := runtime.NumGoroutine()

	var covered atomic.Int64
	r := team.Load(MustCompile(trapNest(&covered, 64), Config{}), nil)
	func() {
		defer func() {
			if v := recover(); v == nil {
				t.Fatal("Run did not panic")
			} else if _, ok := v.(*PanicError); !ok {
				t.Fatalf("Run panicked with %T, want *hbc.PanicError", v)
			}
		}()
		r.Run() // no deferred Close: the leak guard must stand in
	}()

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("ping goroutine leaked after failed Run: %d > baseline %d", n, baseline)
	}
	r.Close()
	r.Close() // idempotent, safe after the failure-path stop
}

func TestWithWatchdogPassesThroughHealthySource(t *testing.T) {
	// A generous heartbeat keeps the silence window (DefaultGrace periods)
	// far above scheduler jitter, which -race amplifies into the
	// milliseconds: a starved-but-healthy ticker must not trip a failover.
	team := NewTeam(Workers(2), WithSignal(SignalEpoch),
		Heartbeat(2*time.Millisecond), WithWatchdog(0))
	defer team.Close()
	if team.watchdog != pulse.DefaultGrace {
		t.Fatalf("WithWatchdog(0) set grace %d, want DefaultGrace", team.watchdog)
	}

	var covered atomic.Int64
	r := team.Load(MustCompile(trapNest(&covered, 0), Config{}), nil)
	defer r.Close()
	for i := 0; i < 5; i++ {
		covered.Store(0)
		if v := r.Run(); v != nil {
			t.Fatalf("unexpected accumulator %v", v)
		}
		if got := covered.Load(); got != 64*64 {
			t.Fatalf("run %d covered %d of %d", i, got, 64*64)
		}
	}
	if st := r.PulseStats(); st.Failovers != 0 {
		t.Fatalf("healthy epoch source recorded %d failovers", st.Failovers)
	}
}
