package chaos

import (
	"runtime"
	"testing"
	"time"

	"hbc/internal/core"
	"hbc/internal/loopnest"
	"hbc/internal/pulse"
	"hbc/internal/sched"
	"hbc/internal/workloads"
)

// testScale keeps workload inputs tiny; the acceptance tests run every
// benchmark three times (calibrate, fault, clean) under -race.
const testScale = 0.02

// catchPanicError runs fn and returns the *core.PanicError it panics with,
// nil if it returns normally. Any other panic value fails the test.
func catchPanicError(t *testing.T, fn func()) (pe *core.PanicError) {
	t.Helper()
	defer func() {
		if v := recover(); v != nil {
			var ok bool
			if pe, ok = v.(*core.PanicError); !ok {
				t.Fatalf("panic value is %T (%v), want *core.PanicError", v, v)
			}
		}
	}()
	fn()
	return nil
}

// waitForGoroutines retries until the goroutine count is back at (or below)
// baseline; worker-loop unwinding after an abort is asynchronous.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d running, baseline %d\n%s",
				n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPanicMidNestEveryWorkload is the headline containment test: for every
// benchmark in the suite, inject a panic halfway through the workload's leaf
// iterations, and require that (a) the run surfaces it as a typed
// *core.PanicError naming the faulting loop, (b) no goroutine leaks, and
// (c) a subsequent clean run on the same team produces the correct result.
func TestPanicMidNestEveryWorkload(t *testing.T) {
	for _, name := range workloads.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			w, err := workloads.New(name)
			if err != nil {
				t.Fatal(err)
			}
			w.Prepare(testScale)
			team := sched.NewTeam(4)
			defer team.Close()
			baseline := runtime.NumGoroutine()

			// Calibration pass: count the workload's total leaf iterations
			// so the fault can be aimed at the middle of the run.
			counter := &PanicPlan{}
			total := func() int64 {
				d := workloads.NewDriver(team, pulse.NewEveryN(3), core.DefaultHeartbeat, core.Options{})
				d.NestHook = counter.WrapNest
				defer d.Close()
				if err := w.BindHBC(d); err != nil {
					t.Fatal(err)
				}
				w.RunHBC(d)
				return counter.Iterations()
			}()
			if total < 2 {
				t.Skipf("only %d leaf iterations at this scale", total)
			}

			// Fault pass: panic once the midpoint is crossed.
			plan := &PanicPlan{AfterIterations: total / 2}
			d := workloads.NewDriver(team, pulse.NewEveryN(3), core.DefaultHeartbeat, core.Options{})
			d.NestHook = plan.WrapNest
			if err := w.BindHBC(d); err != nil {
				t.Fatal(err)
			}
			pe := catchPanicError(t, func() { w.RunHBC(d) })
			if pe == nil {
				t.Fatalf("no panic surfaced; plan saw %d/%d iterations",
					plan.Iterations(), total)
			}
			f, ok := pe.Value.(Fault)
			if !ok {
				t.Fatalf("PanicError.Value is %T (%v), want chaos.Fault", pe.Value, pe.Value)
			}
			if pe.LoopName != f.Loop {
				t.Errorf("PanicError names loop %q, fault fired in %q", pe.LoopName, f.Loop)
			}
			if pe.Loop.Level < 0 || pe.Loop.Index < 0 {
				t.Errorf("invalid faulting loop ID %v", pe.Loop)
			}
			if pe.Worker < 0 || pe.Worker >= team.Size() {
				t.Errorf("PanicError.Worker = %d with %d workers", pe.Worker, team.Size())
			}
			if len(pe.Indices) == 0 {
				t.Error("PanicError carries no induction-variable snapshot")
			}
			d.Close()

			// Clean pass: the team survived the abort; rebinding and
			// re-running the workload must give the oracle's answer.
			d2 := workloads.NewDriver(team, pulse.NewEveryN(3), core.DefaultHeartbeat, core.Options{})
			defer d2.Close()
			if err := w.BindHBC(d2); err != nil {
				t.Fatal(err)
			}
			w.RunHBC(d2)
			if err := w.Verify(); err != nil {
				t.Fatalf("clean run after contained panic: %v", err)
			}

			waitForGoroutines(t, baseline)
		})
	}
}

// TestStalledTimerStopsPromotions stalls the default Timer source for good
// while a workload runs. With no beat left to detect, promotion stops: the
// promotion count must not grow once the stall is active, and every run —
// the one that crossed the stall and the serial ones after it — must still
// compute the right output.
func TestStalledTimerStopsPromotions(t *testing.T) {
	w, err := workloads.New("mandelbrot")
	if err != nil {
		t.Fatal(err)
	}
	w.Prepare(0.05)
	team := sched.NewTeam(4)
	defer team.Close()

	faulty := WrapSource(pulse.NewTimer(), SourcePlan{StallAfter: 50 * time.Millisecond})
	d := workloads.NewDriver(team, faulty, 200*time.Microsecond, core.Options{})
	defer d.Close()
	if err := w.BindHBC(d); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(10 * time.Second)
	runs := 0
	for !faulty.Stalled() && time.Now().Before(deadline) {
		w.RunHBC(d)
		runs++
		if err := w.Verify(); err != nil {
			t.Fatalf("run %d before the stall: %v", runs, err)
		}
	}
	if !faulty.Stalled() {
		t.Fatal("stall fault never became active")
	}
	atStall, _ := d.Stats()
	if atStall == 0 {
		t.Fatalf("no promotion in %d runs before the stall: the source never delivered", runs)
	}
	for i := 0; i < 3; i++ {
		w.RunHBC(d)
		if err := w.Verify(); err != nil {
			t.Fatalf("run %d after the stall: %v", i, err)
		}
		if promos, _ := d.Stats(); promos != atStall {
			t.Fatalf("run %d after the stall: promotions grew from %d to %d", i, atStall, promos)
		}
	}
}

// twoLevelNest builds a named 4×8 nest whose inner leaf records executed
// iterations through the given counter.
func twoLevelNest(executed *int64) *loopnest.Nest {
	inner := &loopnest.Loop{
		Name:   "inner",
		Bounds: func(any, []int64) (int64, int64) { return 0, 8 },
		Body: func(_ any, _ []int64, lo, hi int64, _ any) {
			*executed += hi - lo // serial runs only
		},
	}
	outer := &loopnest.Loop{
		Name:     "outer",
		Bounds:   func(any, []int64) (int64, int64) { return 0, 4 },
		Children: []*loopnest.Loop{inner},
	}
	return &loopnest.Nest{Name: "two-level", Root: outer}
}

// runNest compiles and runs nest serially (one worker, no heartbeats).
func runNest(t *testing.T, nest *loopnest.Nest) {
	t.Helper()
	p, err := core.Compile(nest, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	team := sched.NewTeam(1)
	defer team.Close()
	src := pulse.NewNever()
	src.Attach(1, time.Millisecond)
	defer src.Detach()
	core.NewExecShared(p, team, src, time.Millisecond, nil).Run()
}

func TestPanicPlanCountsWithoutFiring(t *testing.T) {
	var executed int64
	orig := twoLevelNest(&executed)
	origBody := orig.Root.Children[0].Body

	plan := &PanicPlan{}
	wrapped := plan.WrapNest(orig)
	runNest(t, wrapped)

	if got := plan.Iterations(); got != 32 {
		t.Fatalf("counted %d leaf iterations, want 32", got)
	}
	if executed != 32 {
		t.Fatalf("executed %d leaf iterations, want 32", executed)
	}
	// The original nest is untouched; the wrapped copy has a new leaf body.
	if &orig.Root.Children[0].Body != &origBody && orig.Root.Children[0].Name != "inner" {
		t.Fatal("original nest modified by WrapNest")
	}
	if wrapped.Root == orig.Root || wrapped.Root.Children[0] == orig.Root.Children[0] {
		t.Fatal("WrapNest shares loop structs with the original")
	}
}

func TestPanicPlanFiresAtTarget(t *testing.T) {
	var executed int64
	plan := &PanicPlan{AfterIterations: 16}
	nest := plan.WrapNest(twoLevelNest(&executed))

	pe := catchPanicError(t, func() { runNest(t, nest) })
	if pe == nil {
		t.Fatal("plan did not fire")
	}
	f, ok := pe.Value.(Fault)
	if !ok {
		t.Fatalf("PanicError.Value is %T, want chaos.Fault", pe.Value)
	}
	if f.Loop != "inner" || f.Iter < 16 {
		t.Fatalf("fault = %+v, want loop \"inner\" at iteration >= 16", f)
	}
	if pe.Loop != (core.LoopID{Level: 1, Index: 0}) {
		t.Fatalf("faulting loop ID = %v, want (1,0)", pe.Loop)
	}
	if executed >= 32 {
		t.Fatalf("all %d iterations executed despite the injected panic", executed)
	}
}

func TestPanicPlanLoopFilter(t *testing.T) {
	var executed int64
	plan := &PanicPlan{Loop: "elsewhere", AfterIterations: 1}
	nest := plan.WrapNest(twoLevelNest(&executed))
	runNest(t, nest) // no leaf named "elsewhere": nothing wrapped, no panic
	if plan.Iterations() != 0 {
		t.Fatalf("filtered plan counted %d iterations, want 0", plan.Iterations())
	}
	if executed != 32 {
		t.Fatalf("executed %d iterations, want all 32", executed)
	}
}

func TestFaultySourceDropsAreSeeded(t *testing.T) {
	pattern := func(seed int64) []int {
		src := WrapSource(pulse.NewAlways(), SourcePlan{Seed: seed, DropProb: 0.5})
		src.Attach(1, time.Millisecond)
		defer src.Detach()
		out := make([]int, 64)
		for i := range out {
			out[i] = src.Poll(0)
		}
		return out
	}
	a, b := pattern(7), pattern(7)
	drops, beats := 0, 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different drop pattern at poll %d", i)
		}
		if a[i] == 0 {
			drops++
		} else {
			beats++
		}
	}
	if drops == 0 || beats == 0 {
		t.Fatalf("degenerate drop pattern: %d drops, %d beats of 64", drops, beats)
	}
}

func TestFaultySourceFreezeIsOneShot(t *testing.T) {
	const freeze = 30 * time.Millisecond
	src := WrapSource(pulse.NewAlways(), SourcePlan{
		FreezeFor: freeze, FreezeWorker: 1, FreezeAtPoll: 2,
	})
	src.Attach(2, time.Millisecond)
	defer src.Detach()

	src.Poll(1) // poll 1: below the trigger
	t0 := time.Now()
	if src.Poll(1) == 0 { // poll 2: freezes, then beats (inner is Always)
		t.Fatal("frozen poll swallowed the beat")
	}
	if d := time.Since(t0); d < freeze {
		t.Fatalf("freezing poll returned after %v, want >= %v", d, freeze)
	}
	if !src.froze.Load() {
		t.Fatal("freeze not recorded")
	}
	t1 := time.Now()
	for i := 0; i < 8; i++ {
		src.Poll(1)
	}
	if d := time.Since(t1); d >= freeze {
		t.Fatalf("freeze fired again: 8 polls took %v", d)
	}
}

func TestFaultySourceTransparentWhenZero(t *testing.T) {
	src := WrapSource(pulse.NewAlways(), SourcePlan{})
	src.Attach(1, time.Millisecond)
	defer src.Detach()
	if src.Name() != "manual+chaos" {
		t.Fatalf("Name = %q", src.Name())
	}
	for i := 0; i < 16; i++ {
		if src.Poll(0) == 0 {
			t.Fatalf("zero plan dropped a beat at poll %d", i)
		}
	}
	if src.Stalled() {
		t.Fatal("zero plan reports a stall")
	}
	if st := src.Stats(); st.Detected == 0 {
		t.Fatalf("inner stats not passed through: %+v", st)
	}
}
