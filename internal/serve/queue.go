package serve

import (
	"hash/fnv"
	"sync"
)

// fairQueue is the admission queue: a bounded multi-queue with one FIFO per
// tenant and round-robin service across tenants. One hot tenant can fill the
// shared depth budget and get itself shed, but it cannot starve a light
// tenant's queued requests: every dispatch cycle visits each tenant with
// pending work once before revisiting any of them (the classic fair-queuing
// discipline, with requests as the unit of cost — kernel runtimes are close
// enough to uniform within a deployment that deficit accounting would buy
// little).
//
// On a multi-shard pool the queue additionally keeps tenants shard-affine:
// every tenant has a home shard (FNV hash of its name), and popFor serves a
// home tenant's request when one is queued, so a tenant's kernels keep
// hitting the same warm team. Affinity is a preference, not a partition:
// a shard with no home work takes the oldest round-robin tenant instead
// (work-conserving), so locality never idles capacity.
//
// All methods are safe for concurrent use.
type fairQueue struct {
	mu   sync.Mutex
	cond *sync.Cond
	// queues holds the per-tenant FIFOs; order lists tenants with pending
	// requests in round-robin order, next indexing the tenant to serve.
	queues map[string][]*request
	order  []string
	next   int
	size   int
	cap    int
	closed bool
	// shards is the pop-side consumer count used for tenant homing; < 2
	// disables affinity (there is nothing to be affine to).
	shards int
	// affine counts pops served to a tenant's home shard, foreign pops where
	// the work-conserving fallback crossed homes.
	affine, foreign int64
}

func newFairQueue(capacity, shards int) *fairQueue {
	q := &fairQueue{queues: make(map[string][]*request), cap: capacity, shards: shards}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// homeShard maps a tenant to its home shard among n (stable across
// processes: a router and its backends agree on homes for free).
func homeShard(tenant string, n int) int {
	if n < 2 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(tenant))
	return int(h.Sum32() % uint32(n))
}

// push enqueues a request, reporting false when the queue is at capacity or
// closed (the caller sheds).
func (q *fairQueue) push(r *request) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || q.size >= q.cap {
		return false
	}
	fifo, active := q.queues[r.tenant]
	q.queues[r.tenant] = append(fifo, r)
	if !active {
		q.order = append(q.order, r.tenant)
	}
	q.size++
	q.cond.Signal()
	return true
}

// pop blocks until a request is available or the queue is closed and empty,
// in which case it returns nil. Tenants are served round-robin with no
// shard-affinity preference.
func (q *fairQueue) pop() *request { return q.popFor(-1) }

// popFor is pop for a specific consuming shard: among tenants with queued
// work, one homed on this shard is preferred (round-robin within the home
// set so co-homed tenants stay fair with each other); with no home work
// queued, the global round-robin tenant is served instead. shard < 0 skips
// the affinity scan.
func (q *fairQueue) popFor(shard int) *request {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.size == 0 {
		if q.closed {
			return nil
		}
		q.cond.Wait()
	}
	if q.next >= len(q.order) {
		q.next = 0
	}
	idx := q.next
	if shard >= 0 && q.shards > 1 {
		for i := 0; i < len(q.order); i++ {
			j := (q.next + i) % len(q.order)
			if homeShard(q.order[j], q.shards) == shard {
				idx = j
				break
			}
		}
		if homeShard(q.order[idx], q.shards) == shard {
			q.affine++
		} else {
			q.foreign++
		}
	}
	return q.takeLocked(idx)
}

// takeLocked dequeues the head request of the tenant at order[idx], keeping
// the round-robin cursor consistent. Caller holds q.mu.
func (q *fairQueue) takeLocked(idx int) *request {
	tenant := q.order[idx]
	fifo := q.queues[tenant]
	r := fifo[0]
	fifo[0] = nil // release the request to the GC once served
	if len(fifo) == 1 {
		delete(q.queues, tenant)
		q.order = append(q.order[:idx], q.order[idx+1:]...)
		if idx < q.next {
			q.next--
		}
		// When idx == next, next already indexes the following tenant.
	} else {
		q.queues[tenant] = fifo[1:]
		if idx == q.next {
			q.next++
		}
	}
	q.size--
	return r
}

// affinity returns the affine/foreign pop counts (popFor with a shard on a
// multi-shard queue; plain pop counts under neither).
func (q *fairQueue) affinity() (affine, foreign int64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.affine, q.foreign
}

// close stops admission. Blocked pop calls drain the remaining requests and
// then return nil.
func (q *fairQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// depth returns the number of queued requests.
func (q *fairQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.size
}
