// Serving-under-fault acceptance tests: chaos-injected mid-request panics
// must surface as a typed error on that request alone, and a stalled
// heartbeat source under load must not fail a request.
package serve_test

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"hbc"
	"hbc/internal/chaos"
	"hbc/internal/pulse"
	"hbc/internal/serve"
)

// TestPanicIsolatedToOneRequest injects a one-shot mid-request panic under
// concurrent load: exactly one request observes a *hbc.PanicError wrapping
// the chaos.Fault, every other in-flight request completes, and the shard
// stays warm for subsequent traffic.
func TestPanicIsolatedToOneRequest(t *testing.T) {
	plan := &chaos.PanicPlan{AfterIterations: 1, OneShot: true}
	nest := plan.WrapNest(burnNest("spiky", 4000, 200))

	p := serve.NewPool(serve.Config{Shards: 2, WorkersPerShard: 2, QueueDepth: 32, DefaultDeadline: 20 * time.Second})
	defer p.Close()
	if err := p.Register("spiky", nestBuild(t, nest)); err != nil {
		t.Fatal(err)
	}
	p.Start()

	const n = 16
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = p.Do(context.Background(), serve.Request{Kernel: "spiky", Tenant: "t"})
		}(i)
	}
	wg.Wait()

	var panics, ok int
	for i, err := range errs {
		switch {
		case err == nil:
			ok++
		default:
			var pe *hbc.PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("request %d: error %v is not a *hbc.PanicError", i, err)
			}
			var fault chaos.Fault
			if !errors.As(err, &fault) {
				t.Fatalf("request %d: PanicError does not unwrap to the injected chaos.Fault: %v", i, err)
			}
			panics++
		}
	}
	if panics != 1 {
		t.Fatalf("%d requests saw the panic, want exactly 1 (ok=%d)", panics, ok)
	}
	if ok != n-1 {
		t.Fatalf("%d requests succeeded, want %d: the fault leaked beyond its request", ok, n-1)
	}
	if !plan.Fired() {
		t.Fatal("plan reports not fired")
	}

	// The pool keeps serving after containment.
	if _, err := p.Do(context.Background(), serve.Request{Kernel: "spiky", Tenant: "t"}); err != nil {
		t.Fatalf("request after contained panic: %v", err)
	}
	if s := p.Stats(); s.Failed != 1 {
		t.Errorf("Stats().Failed = %d, want 1", s.Failed)
	}
}

// TestStalledHeartbeatUnderLoad stalls the default heartbeat source for
// good mid-load. A stalled source only stops promotions, so every request
// must still complete, with the value the healthy requests computed.
func TestStalledHeartbeatUnderLoad(t *testing.T) {
	var faulty *chaos.FaultySource
	p := serve.NewPool(serve.Config{
		Shards:          1,
		WorkersPerShard: 2,
		QueueDepth:      16,
		DefaultDeadline: 20 * time.Second,
		Heartbeat:       200 * time.Microsecond,
		TeamOptions: []hbc.Option{
			hbc.WithSourceWrapper(func(s pulse.Source) pulse.Source {
				faulty = chaos.WrapSource(s, chaos.SourcePlan{StallAfter: 10 * time.Millisecond})
				return faulty
			}),
		},
	})
	defer p.Close()
	const iters = 6000
	if err := p.Register("burn", nestBuild(t, burnNest("burn", iters, 500))); err != nil {
		t.Fatal(err)
	}
	p.Start()

	// Enough sequential load to cross the stall point and keep serving
	// after it.
	const requests = 30
	var first float64
	for i := 0; i < requests; i++ {
		res, err := p.Do(context.Background(), serve.Request{Kernel: "burn", Tenant: "t"})
		if err != nil {
			t.Fatalf("request %d failed under stalled heartbeat: %v", i, err)
		}
		v := *res.Value.(*float64)
		if i == 0 {
			first = v
		} else if math.Abs(v-first) > 1e-9*first {
			t.Fatalf("request %d = %v, want %v", i, v, first)
		}
	}
	if !faulty.Stalled() {
		t.Fatal("stall fault never became active")
	}
	if st := p.Stats(); st.Completed != requests {
		t.Fatalf("Stats().Completed = %d, want %d", st.Completed, requests)
	}
}
