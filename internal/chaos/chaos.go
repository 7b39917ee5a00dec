// Package chaos is a seeded fault injector for the heartbeat runtime.
//
// The runtime's failure semantics — panic containment into typed errors,
// cooperative cancellation at poll safepoints, and exact serial completion
// under a silent heartbeat source — are promises about behaviour off the
// happy path; this package makes them testable on the happy path's own workloads.
// In the style of chaos-engineering schedulers, every fault is deterministic
// given its plan (and seed, where randomness is involved), so a failing soak
// run is reproducible from the seed printed in its failure message.
//
// Two fault families are provided:
//
//   - PanicPlan rewrites a loop nest so a leaf body panics once a chosen
//     cumulative iteration count is crossed — "panic at iteration N of loop
//     L". Drivers install it with workloads.Driver.NestHook or by wrapping a
//     nest before compilation.
//
//   - SourcePlan wraps a pulse.Source with delivery faults: a permanent
//     stall after a delay (no beat is ever detected again, so promotion
//     stops and the run finishes serially), random beat drops, and a
//     one-shot worker freeze at a poll (a descheduled worker parked at a
//     safepoint).
package chaos

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"hbc/internal/loopnest"
	"hbc/internal/pulse"
)

// Fault is the value a PanicPlan panics with. The runtime wraps it in a
// *core.PanicError; tests unwrap it to verify the injection site survived
// containment.
type Fault struct {
	// Loop is the name of the leaf loop the fault fired in.
	Loop string
	// Iter is the cumulative iteration count at the firing body call.
	Iter int64
}

// Error implements error, so PanicError.Unwrap exposes the fault.
func (f Fault) Error() string {
	return fmt.Sprintf("chaos: injected panic in loop %q at iteration %d", f.Loop, f.Iter)
}

// PanicPlan injects a panic into a nest's leaf bodies after a cumulative
// iteration count. With AfterIterations <= 0 the plan only counts — a
// calibration pass: run the workload once, read Iterations(), and aim a
// second plan at the middle of the nest.
//
// One plan may wrap several nests (e.g. every nest a workload driver
// loads); the iteration counter is shared, so "iteration N" counts across
// the whole workload in execution order.
type PanicPlan struct {
	// Loop restricts injection to the named leaf loop; empty wraps every
	// leaf.
	Loop string
	// AfterIterations fires the panic on the first wrapped body call at
	// which the cumulative iteration count reaches or exceeds this value.
	AfterIterations int64
	// OneShot disarms the plan after the first injected panic, so exactly
	// one run observes the fault and later runs over the same wrapped nest
	// proceed clean. Without it the counter only grows, so once the
	// threshold is crossed every subsequent body call panics — the right
	// shape for "this nest is poisoned", the wrong one for "fail exactly one
	// request of a serving pool".
	OneShot bool

	count atomic.Int64
	fired atomic.Bool
}

// Iterations returns the cumulative iteration count observed so far.
func (p *PanicPlan) Iterations() int64 { return p.count.Load() }

// Fired reports whether the plan has injected its panic. Meaningful for
// OneShot plans; a repeating plan keeps firing and keeps reporting true.
func (p *PanicPlan) Fired() bool { return p.fired.Load() }

// WrapNest returns a copy of nest with the plan's leaves wrapped. The
// original nest is not modified; interior structure, bounds, hooks, and
// reductions are shared.
func (p *PanicPlan) WrapNest(n *loopnest.Nest) *loopnest.Nest {
	return &loopnest.Nest{Name: n.Name, Root: p.wrapLoop(n.Root)}
}

func (p *PanicPlan) wrapLoop(l *loopnest.Loop) *loopnest.Loop {
	c := *l
	if l.Body != nil && (p.Loop == "" || p.Loop == l.Name) {
		body := l.Body
		name := l.Name
		c.Body = func(env any, idx []int64, lo, hi int64, acc any) {
			n := p.count.Add(hi - lo)
			if p.AfterIterations > 0 && n >= p.AfterIterations {
				if !p.OneShot {
					p.fired.Store(true)
					panic(Fault{Loop: name, Iter: n})
				}
				if p.fired.CompareAndSwap(false, true) {
					panic(Fault{Loop: name, Iter: n})
				}
			}
			body(env, idx, lo, hi, acc)
		}
	}
	if len(l.Children) > 0 {
		c.Children = make([]*loopnest.Loop, len(l.Children))
		for i, k := range l.Children {
			c.Children[i] = p.wrapLoop(k)
		}
	}
	return &c
}

// SourcePlan describes heartbeat-delivery faults for WrapSource. The zero
// value injects nothing.
type SourcePlan struct {
	// Seed seeds the drop decisions; runs with equal seeds and poll
	// sequences make equal drops.
	Seed int64
	// StallAfter, if > 0, silences the source permanently once this much
	// time has passed since Attach. A stalled source means no more
	// promotions: the run in flight and every later one finish serially,
	// with the serial elision's result.
	StallAfter time.Duration
	// DropProb drops each detected beat batch with this probability —
	// delivery jitter beyond what the mechanism itself produces.
	DropProb float64
	// FreezeFor, if > 0, makes worker FreezeWorker sleep this long inside
	// its FreezeAtPoll'th poll, once — a worker descheduled at a safepoint.
	FreezeFor    time.Duration
	FreezeWorker int
	FreezeAtPoll int64
}

// FaultySource wraps a pulse.Source with the faults of a SourcePlan. It
// implements pulse.Source and is transparent when the plan is zero.
type FaultySource struct {
	plan  SourcePlan
	inner pulse.Source

	start time.Time
	polls []int64 // per-worker poll counts (atomic)
	froze atomic.Bool

	rngMu sync.Mutex
	rng   *rand.Rand
}

// WrapSource wraps inner with the plan's faults.
func WrapSource(inner pulse.Source, plan SourcePlan) *FaultySource {
	return &FaultySource{plan: plan, inner: inner}
}

// Name implements pulse.Source.
func (f *FaultySource) Name() string { return f.inner.Name() + "+chaos" }

// Attach implements pulse.Source.
func (f *FaultySource) Attach(workers int, period time.Duration) {
	f.start = time.Now()
	f.polls = make([]int64, workers)
	f.froze.Store(false)
	f.rng = rand.New(rand.NewSource(f.plan.Seed))
	f.inner.Attach(workers, period)
}

// Poll implements pulse.Source, applying freeze, stall, and drop faults in
// that order.
func (f *FaultySource) Poll(w int) int {
	n := atomic.AddInt64(&f.polls[w], 1)
	if f.plan.FreezeFor > 0 && w == f.plan.FreezeWorker && n >= f.plan.FreezeAtPoll &&
		f.froze.CompareAndSwap(false, true) {
		time.Sleep(f.plan.FreezeFor)
	}
	k := f.inner.Poll(w)
	if k == 0 {
		return 0
	}
	if f.plan.StallAfter > 0 && time.Since(f.start) > f.plan.StallAfter {
		return 0
	}
	if f.plan.DropProb > 0 {
		f.rngMu.Lock()
		drop := f.rng.Float64() < f.plan.DropProb
		f.rngMu.Unlock()
		if drop {
			return 0
		}
	}
	return k
}

// Stalled reports whether the stall fault is active.
func (f *FaultySource) Stalled() bool {
	return f.plan.StallAfter > 0 && time.Since(f.start) > f.plan.StallAfter
}

// Detach implements pulse.Source.
func (f *FaultySource) Detach() { f.inner.Detach() }

// Stats implements pulse.Source. Beats swallowed by the stall and drop
// faults remain counted as detected by the inner source; chaos statistics
// are about the runtime's behaviour, not the source's.
func (f *FaultySource) Stats() pulse.Stats { return f.inner.Stats() }
