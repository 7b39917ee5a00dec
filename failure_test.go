package hbc

import (
	"context"
	"errors"
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
	r := team.Load(MustCompile(nest, Config{StaticChunk: 1}), nil)
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

// goroutineSource wraps a heartbeat source with a helper goroutine that
// Attach starts and Detach stops — the shape of any source passed through
// WithSourceWrapper that needs one. live counts helpers still running.
type goroutineSource struct {
	pulse.Source
	live       *atomic.Int64
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

// TestFailedRunReleasesSignalGoroutine is the leak regression test: a Run
// that panics must detach its heartbeat source even though the caller never
// reaches Close, releasing the goroutine the source started.
func TestFailedRunReleasesSignalGoroutine(t *testing.T) {
	var live atomic.Int64
	team := NewTeam(Workers(2), Heartbeat(100*time.Microsecond),
		WithSourceWrapper(func(src pulse.Source) pulse.Source {
			return &goroutineSource{Source: src, live: &live}
		}))
	defer team.Close()

	var covered atomic.Int64
	r := team.Load(MustCompile(trapNest(&covered, 64), Config{}), nil)
	if n := live.Load(); n != 1 {
		t.Fatalf("Load started %d source goroutines, want 1", n)
	}
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
	if n := live.Load(); n != 0 {
		t.Fatalf("source goroutine leaked after failed Run: %d still running", n)
	}
	r.Close()
	r.Close() // idempotent, safe after the failure-path stop
}
