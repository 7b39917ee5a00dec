package serve_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"hbc"
	"hbc/internal/loopnest"
	"hbc/internal/serve"
)

// countingNest builds a one-iteration nest that counts executions — the
// probe for "did this request actually run the kernel or was it deduped".
func countingNest(name string, execs *int64, mu *sync.Mutex) *hbc.Nest {
	return &hbc.Nest{Name: name, Root: &hbc.Loop{
		Name:   "i",
		Bounds: func(any, []int64) (int64, int64) { return 0, 1 },
		Body: func(_ any, _ []int64, lo, hi int64, acc any) {
			mu.Lock()
			*execs++
			mu.Unlock()
			*acc.(*float64)++
		},
		Reduce: loopnest.SumFloat64(),
	}}
}

func TestIdempotencyDedupesCompletedRuns(t *testing.T) {
	var (
		execs int64
		mu    sync.Mutex
	)
	nest := countingNest("count", &execs, &mu)

	p := serve.NewPool(serve.Config{Shards: 1, WorkersPerShard: 1, QueueDepth: 8,
		DefaultDeadline: 10 * time.Second, IdemTTL: time.Minute})
	defer p.Close()
	if err := p.Register("count", nestBuild(t, nest)); err != nil {
		t.Fatal(err)
	}
	p.Start()

	first, err := p.Do(context.Background(), serve.Request{Kernel: "count", Tenant: "t", IdemKey: "req-1"})
	if err != nil {
		t.Fatalf("first request: %v", err)
	}
	if first.Deduped {
		t.Fatal("first request reported Deduped")
	}

	// The retry: same key, must be answered from the cache without running.
	second, err := p.Do(context.Background(), serve.Request{Kernel: "count", Tenant: "t", IdemKey: "req-1"})
	if err != nil {
		t.Fatalf("retried request: %v", err)
	}
	if !second.Deduped {
		t.Fatal("retry with the same IdemKey was not deduped")
	}
	if got, want := *second.Value.(*float64), *first.Value.(*float64); got != want {
		t.Fatalf("deduped value = %v, original %v", got, want)
	}

	// A different key runs fresh; a keyless request always runs fresh.
	if res, err := p.Do(context.Background(), serve.Request{Kernel: "count", Tenant: "t", IdemKey: "req-2"}); err != nil || res.Deduped {
		t.Fatalf("distinct key: res=%+v err=%v", res, err)
	}
	if res, err := p.Do(context.Background(), serve.Request{Kernel: "count", Tenant: "t"}); err != nil || res.Deduped {
		t.Fatalf("keyless request: res=%+v err=%v", res, err)
	}

	mu.Lock()
	got := execs
	mu.Unlock()
	if got != 3 {
		t.Fatalf("kernel executed %d times, want 3 (one dedup hit)", got)
	}
	s := p.Stats()
	if s.IdemHits != 1 {
		t.Fatalf("Stats().IdemHits = %d, want 1", s.IdemHits)
	}
	if s.IdemEntries != 2 {
		t.Fatalf("Stats().IdemEntries = %d, want 2", s.IdemEntries)
	}
}

func TestIdempotencyEntriesExpire(t *testing.T) {
	p := serve.NewPool(serve.Config{Shards: 1, WorkersPerShard: 1, QueueDepth: 8,
		DefaultDeadline: 10 * time.Second, IdemTTL: 30 * time.Millisecond})
	defer p.Close()
	if err := p.Register("burn", nestBuild(t, burnNest("burn", 10, 5))); err != nil {
		t.Fatal(err)
	}
	p.Start()

	if _, err := p.Do(context.Background(), serve.Request{Kernel: "burn", IdemKey: "k"}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(60 * time.Millisecond)
	res, err := p.Do(context.Background(), serve.Request{Kernel: "burn", IdemKey: "k"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deduped {
		t.Fatal("expired idempotency entry still served a dedup hit")
	}
}

// TestIdempotencyCopiesCachedValue pins the aliasing defence: mutating the
// *float64 a deduped result returns must not corrupt the cache.
func TestIdempotencyCopiesCachedValue(t *testing.T) {
	p := serve.NewPool(serve.Config{Shards: 1, WorkersPerShard: 1, QueueDepth: 8,
		DefaultDeadline: 10 * time.Second})
	defer p.Close()
	if err := p.Register("burn", nestBuild(t, burnNest("burn", 100, 5))); err != nil {
		t.Fatal(err)
	}
	p.Start()

	first, err := p.Do(context.Background(), serve.Request{Kernel: "burn", IdemKey: "k"})
	if err != nil {
		t.Fatal(err)
	}
	want := *first.Value.(*float64)
	*first.Value.(*float64) = -1 // caller scribbles on its copy

	res, err := p.Do(context.Background(), serve.Request{Kernel: "burn", IdemKey: "k"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deduped {
		t.Fatal("second request was not deduped")
	}
	if got := *res.Value.(*float64); got != want {
		t.Fatalf("cached value corrupted through an aliased pointer: got %v, want %v", got, want)
	}
	*res.Value.(*float64) = -2
	res3, err := p.Do(context.Background(), serve.Request{Kernel: "burn", IdemKey: "k"})
	if err != nil {
		t.Fatal(err)
	}
	if got := *res3.Value.(*float64); got != want {
		t.Fatalf("cache corrupted by mutating a returned copy: got %v, want %v", got, want)
	}
}

// TestReadySignal pins the liveness-vs-readiness split: a saturated queue
// flips Ready false while the pool is still alive, and readmission follows
// the queue emptying; draining flips it permanently.
func TestReadySignal(t *testing.T) {
	release := make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	entered := make(chan struct{}, 1)
	gate := &hbc.Nest{Name: "gate", Root: &hbc.Loop{
		Name:   "i",
		Bounds: func(any, []int64) (int64, int64) { return 0, 1 },
		Body: func(_ any, _ []int64, lo, hi int64, _ any) {
			select {
			case entered <- struct{}{}:
			default:
			}
			<-release
		},
	}}
	p := serve.NewPool(serve.Config{Shards: 1, WorkersPerShard: 1, QueueDepth: 2,
		DefaultDeadline: 20 * time.Second})
	defer p.Close()
	// Deferred after Close, so it runs first: a failure below must not
	// leave Close draining a gated body forever.
	defer unblock()
	if err := p.Register("gate", nestBuild(t, gate)); err != nil {
		t.Fatal(err)
	}
	p.Start()

	if ok, reason := p.Ready(); !ok {
		t.Fatalf("fresh pool not ready: %s", reason)
	}

	// 1 in-flight + 2 queued = saturation. The in-flight request must
	// leave the queue before the other two arrive, or the third is shed.
	go p.Do(context.Background(), serve.Request{Kernel: "gate", Tenant: "t"})
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the first request never started running")
	}
	for i := 0; i < 2; i++ {
		go p.Do(context.Background(), serve.Request{Kernel: "gate", Tenant: "t"})
	}
	waitFor(t, func() bool { return p.Stats().QueueDepth == 2 })
	if ok, reason := p.Ready(); ok {
		t.Fatal("pool with a full admission queue reported ready")
	} else if reason == "" {
		t.Fatal("not-ready with empty reason")
	}

	unblock()
	waitFor(t, func() bool { ok, _ := p.Ready(); return ok })

	go p.Drain(context.Background())
	waitFor(t, func() bool { return p.Draining() })
	if ok, reason := p.Ready(); ok || reason != "draining" {
		t.Fatalf("draining pool Ready() = %v, %q; want false, draining", ok, reason)
	}
}
