package serve

import (
	"context"
	"fmt"
	"testing"
	"time"
)

func mkreq(tenant string) *request {
	return &request{
		tenant: tenant,
		ctx:    context.Background(),
		enq:    time.Now(),
		done:   make(chan outcome, 1),
	}
}

func TestFairQueueRoundRobin(t *testing.T) {
	q := newFairQueue(16, 1)
	// Hot tenant a enqueues 6 before b and c enqueue 2 each.
	for i := 0; i < 6; i++ {
		if !q.push(mkreq("a")) {
			t.Fatal("push a rejected below capacity")
		}
	}
	for i := 0; i < 2; i++ {
		q.push(mkreq("b"))
		q.push(mkreq("c"))
	}
	var order []string
	for q.depth() > 0 {
		order = append(order, q.pop().tenant)
	}
	// Round-robin: the first 6 pops must serve each tenant twice, so b and c
	// drain before a's backlog does.
	counts := map[string]int{}
	for _, tn := range order[:6] {
		counts[tn]++
	}
	if counts["a"] != 2 || counts["b"] != 2 || counts["c"] != 2 {
		t.Fatalf("first 6 pops = %v, want 2 per tenant (order %v)", counts, order)
	}
}

func TestFairQueueCapacityAndClose(t *testing.T) {
	q := newFairQueue(2, 1)
	if !q.push(mkreq("a")) || !q.push(mkreq("a")) {
		t.Fatal("pushes below capacity rejected")
	}
	if q.push(mkreq("a")) {
		t.Fatal("push above capacity admitted")
	}
	q.close()
	if q.push(mkreq("b")) {
		t.Fatal("push after close admitted")
	}
	// Queued requests drain after close; then pop returns nil.
	if q.pop() == nil || q.pop() == nil {
		t.Fatal("queued requests lost at close")
	}
	if q.pop() != nil {
		t.Fatal("pop after drain should return nil")
	}
}

func TestFairQueuePopBlocksUntilPush(t *testing.T) {
	q := newFairQueue(4, 1)
	got := make(chan *request)
	go func() { got <- q.pop() }()
	time.Sleep(10 * time.Millisecond)
	q.push(mkreq("a"))
	select {
	case r := <-got:
		if r == nil || r.tenant != "a" {
			t.Fatalf("pop returned %v", r)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pop did not wake on push")
	}
}

// tenantHomedOn finds a tenant name whose FNV home among n shards is the
// given shard — tests stay deterministic without hardcoding hash values.
func tenantHomedOn(t *testing.T, shard, n int) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		name := fmt.Sprintf("tenant-%d", i)
		if homeShard(name, n) == shard {
			return name
		}
	}
	t.Fatalf("no tenant name homed on shard %d/%d in 10000 tries", shard, n)
	return ""
}

func TestFairQueuePrefersHomeShard(t *testing.T) {
	q := newFairQueue(16, 2)
	t0 := tenantHomedOn(t, 0, 2)
	t1 := tenantHomedOn(t, 1, 2)
	// t0 enqueues first, so plain round-robin would hand its request to
	// whichever shard pops next; affinity must route each tenant home.
	q.push(mkreq(t0))
	q.push(mkreq(t1))
	if r := q.popFor(1); r.tenant != t1 {
		t.Fatalf("shard 1 popped %q, want home tenant %q", r.tenant, t1)
	}
	if r := q.popFor(0); r.tenant != t0 {
		t.Fatalf("shard 0 popped %q, want home tenant %q", r.tenant, t0)
	}
	affine, foreign := q.affinity()
	if affine != 2 || foreign != 0 {
		t.Fatalf("affinity = %d/%d, want 2 affine / 0 foreign", affine, foreign)
	}
}

func TestFairQueueWorkConservingFallback(t *testing.T) {
	q := newFairQueue(16, 2)
	t0 := tenantHomedOn(t, 0, 2)
	q.push(mkreq(t0))
	// Shard 1 has no home work queued; it must take shard 0's tenant rather
	// than idle while work waits.
	if r := q.popFor(1); r == nil || r.tenant != t0 {
		t.Fatalf("foreign shard did not take waiting work")
	}
	affine, foreign := q.affinity()
	if affine != 0 || foreign != 1 {
		t.Fatalf("affinity = %d/%d, want 0 affine / 1 foreign", affine, foreign)
	}
}

func TestFairQueueAffinityKeepsCoHomedTenantsFair(t *testing.T) {
	q := newFairQueue(32, 2)
	a := tenantHomedOn(t, 0, 2)
	var b string
	for i := 10000; ; i++ {
		b = fmt.Sprintf("tenant-%d", i)
		if b != a && homeShard(b, 2) == 0 {
			break
		}
	}
	// Two tenants homed on shard 0, interleaved backlog: service must
	// alternate between them, not drain one FIFO first.
	for i := 0; i < 2; i++ {
		q.push(mkreq(a))
		q.push(mkreq(b))
	}
	got := []string{q.popFor(0).tenant, q.popFor(0).tenant, q.popFor(0).tenant, q.popFor(0).tenant}
	want := []string{a, b, a, b}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
}
