package serve

import (
	"sync"
	"time"
)

// idemCache is the completed-run cache behind request idempotency: a retry
// whose original attempt DID complete server-side (the ack was lost on the
// wire — connection reset, truncated response) is answered from here instead
// of executing the kernel a second time. Entries live for a short TTL: long
// enough to cover a client's retry budget, short enough that the cache stays
// bounded under millions of distinct keys.
//
// Only successful completions are cached. A failed or expired run is not an
// acknowledgement, and the request is idempotent by contract, so re-executing
// it is the correct recovery.
type idemCache struct {
	mu      sync.Mutex
	ttl     time.Duration
	entries map[string]idemEntry
	puts    int // puts since the last sweep; triggers amortized expiry
}

type idemEntry struct {
	val   any
	shard int
	exp   time.Time
}

// sweepEvery bounds the amortized cost of expiry: every sweepEvery puts, one
// full pass drops expired entries, so the map's size tracks the live window.
const sweepEvery = 256

func newIdemCache(ttl time.Duration) *idemCache {
	return &idemCache{ttl: ttl, entries: make(map[string]idemEntry)}
}

// get returns the cached completion for key, if present and unexpired. The
// value is defensively copied (see copyResult) so callers cannot alias the
// cached cell.
func (c *idemCache) get(key string) (any, int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		return nil, 0, false
	}
	if time.Now().After(e.exp) {
		delete(c.entries, key)
		return nil, 0, false
	}
	return copyResult(e.val), e.shard, true
}

// put records a successful completion under key. Last write wins: two
// concurrent executions of the same key (possible when the first attempt's
// ack raced the retry through different backends) cache one of the two
// results — both are valid answers for an idempotent request.
func (c *idemCache) put(key string, val any, shard int) {
	now := time.Now()
	c.mu.Lock()
	c.entries[key] = idemEntry{val: copyResult(val), shard: shard, exp: now.Add(c.ttl)}
	c.puts++
	if c.puts >= sweepEvery {
		c.puts = 0
		for k, e := range c.entries {
			if now.After(e.exp) {
				delete(c.entries, k)
			}
		}
	}
	c.mu.Unlock()
}

// size returns the current entry count (live plus not-yet-swept expired).
func (c *idemCache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// copyResult defends the cache against mutation through shared pointers:
// kernel root reductions surface as *float64, which would otherwise alias
// every caller onto one cell.
func copyResult(v any) any {
	if f, ok := v.(*float64); ok {
		c := *f
		return &c
	}
	return v
}
