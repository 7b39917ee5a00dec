// Package serve is the multi-tenant kernel-execution service layered above
// the heartbeat runtime: the piece that turns "a caller who hand-owns a
// Team" into "a pool that serves concurrent requests from many tenants and
// degrades gracefully under saturation".
//
// A Pool owns a sharded set of warm hbc.Teams — one team per shard, workers
// partitioned across shards so concurrent requests never time-share a
// worker and cross-request interference stays bounded — with every kernel
// compiled once per shard (its data environment included, so shards share
// no mutable state). Requests pass through an admission controller:
//
//   - a bounded queue with per-tenant fair queuing (round-robin across
//     tenants), so one hot tenant saturates only its own share of the queue
//     and cannot starve others;
//   - load shedding once the queue is full: the request is rejected with a
//     typed *ErrOverloaded carrying a retry-after hint derived from the
//     observed service time and current depth;
//   - a per-request deadline enforced through the runtime's cooperative
//     cancellation (hbc.Runner.RunCtx): a request that expires in the queue
//     never runs, and one that expires mid-run stops at the next safepoint.
//
// Failure containment comes from the runtime's existing semantics: a
// panicking kernel surfaces as a typed *hbc.PanicError on that request
// only, and the shard's team remains warm for the next request.
//
// Drain is deterministic: stop admitting (Draining flips for health
// checks), let queued and running requests finish, then close every runner
// and team. DESIGN.md §11 documents the protocol.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hbc"
	"hbc/internal/telemetry"
)

// ErrOverloaded is the typed load-shedding error: the admission queue was
// full (or the pool draining had not yet flipped admission off) and the
// request was rejected without queuing. RetryAfter is the server's estimate
// of when capacity will free up — clients should back off at least that
// long.
type ErrOverloaded struct {
	// RetryAfter is the suggested backoff before retrying.
	RetryAfter time.Duration
	// QueueDepth is the queue depth observed at rejection.
	QueueDepth int
}

func (e *ErrOverloaded) Error() string {
	return fmt.Sprintf("serve: overloaded (queue depth %d), retry after %v", e.QueueDepth, e.RetryAfter)
}

// ErrDraining is returned by Do once a drain has begun: the pool no longer
// admits requests.
var ErrDraining = errors.New("serve: pool draining")

// ErrUnknownKernel is wrapped by Do when the requested kernel was never
// registered.
var ErrUnknownKernel = errors.New("serve: unknown kernel")

// ErrStarted is returned by Register after Start: the kernel table is
// read-only once requests can arrive.
var ErrStarted = errors.New("serve: pool already started")

// Runnable is one kernel instance bound to a shard: the pool guarantees
// RunCtx is never called concurrently on the same Runnable (each shard
// serves one request at a time), which is exactly the discipline hbc.Runner
// requires.
type Runnable interface {
	RunCtx(ctx context.Context) (any, error)
	Close()
}

// BuildFunc constructs a kernel instance on one shard. It is called once
// per shard at Register time; instances must not share mutable state across
// shards.
type BuildFunc func(shard int, team *hbc.Team) (Runnable, error)

// Config sizes a Pool. Zero values select the documented defaults.
type Config struct {
	// Shards is the number of teams (default 2). Each shard serves one
	// request at a time, so Shards is also the in-flight limit.
	Shards int
	// WorkersPerShard sets each team's worker count (default
	// max(1, NumCPU/Shards)).
	WorkersPerShard int
	// QueueDepth bounds the admission queue across all tenants (default 64).
	// A request arriving at a full queue is shed with *ErrOverloaded.
	QueueDepth int
	// DefaultDeadline applies to requests that specify none (default 1s);
	// MaxDeadline clamps requested deadlines (default 30s).
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// Heartbeat sets the teams' heartbeat period (0 = hbc default).
	Heartbeat time.Duration
	// Registry, if non-nil, receives the pool's metric groups ("serve",
	// "serve_tenant") and every shard team's groups ("shardN_sched", ...).
	Registry *telemetry.Registry
	// TeamOptions is appended to each shard team's construction options —
	// the hook for hbc.WithSourceWrapper.
	TeamOptions []hbc.Option
	// IdemTTL bounds how long a completed run stays answerable from the
	// idempotency cache (default 30s). It should exceed the longest retry
	// backoff a well-behaved client applies, so a retried request whose
	// original ack was lost in transit still dedupes instead of re-running.
	IdemTTL time.Duration
}

func (c Config) withDefaults() Config {
	if c.Shards < 1 {
		c.Shards = 2
	}
	if c.WorkersPerShard < 1 {
		c.WorkersPerShard = runtime.NumCPU() / c.Shards
		if c.WorkersPerShard < 1 {
			c.WorkersPerShard = 1
		}
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 64
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 30 * time.Second
	}
	if c.IdemTTL <= 0 {
		c.IdemTTL = 30 * time.Second
	}
	return c
}

// Request is one admission attempt.
type Request struct {
	// Kernel names a registered kernel.
	Kernel string
	// Tenant identifies the requester for fair queuing and per-tenant
	// metrics; empty maps to "default".
	Tenant string
	// Deadline bounds queue wait plus execution (0 = Config.DefaultDeadline,
	// clamped to Config.MaxDeadline).
	Deadline time.Duration
	// IdemKey, when non-empty, marks the request idempotent and keys it in
	// the completed-run cache: if an earlier request with the same key
	// completed successfully within Config.IdemTTL, its result is returned
	// without executing the kernel again. This is the server half of the
	// retry contract — a router may only replay requests that carry a key.
	IdemKey string
}

// Result is a completed execution.
type Result struct {
	// Value is the kernel's root reduction accumulator (nil if none).
	Value any
	// Shard is the shard that served the request.
	Shard int
	// Queued is the time spent in the admission queue; Run the execution
	// time on the team. Both are zero for deduped results.
	Queued, Run time.Duration
	// Deduped reports that the result was served from the idempotency cache:
	// an earlier request with the same IdemKey already completed, and this
	// one did not execute.
	Deduped bool
}

type outcome struct {
	res Result
	err error
}

type request struct {
	kernel, tenant string
	idemKey        string
	ctx            context.Context
	cancel         context.CancelFunc
	enq            time.Time
	done           chan outcome // buffered; the dispatcher never blocks on it
}

type shard struct {
	id      int
	team    *hbc.Team
	runners map[string]Runnable
}

type tenantStats struct {
	requests atomic.Int64
	shed     atomic.Int64
	lat      telemetry.Histogram
}

// Pool is the multi-tenant serving pool. Construct with NewPool, Register
// kernels, Start, then call Do from any number of goroutines; Drain (or
// Close) shuts it down.
type Pool struct {
	cfg     Config
	q       *fairQueue
	shards  []*shard
	kernels map[string]bool
	// idem is the completed-run cache deduplicating retried idempotent
	// requests (see Request.IdemKey).
	idem *idemCache

	started  atomic.Bool
	draining atomic.Bool
	drainMu  sync.Mutex
	drained  chan struct{}
	drainErr error
	wg       sync.WaitGroup

	// active tracks admitted, not-yet-completed requests so a forced drain
	// can cancel them.
	activeMu sync.Mutex
	active   map[*request]struct{}

	tenantMu sync.Mutex
	tenants  map[string]*tenantStats

	idemHits  atomic.Int64
	admitted  atomic.Int64
	shed      atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
	expired   atomic.Int64
	inflight  atomic.Int64
	svcEWMA   atomic.Int64 // ns; exponentially weighted mean service time
}

// NewPool creates the shard teams. Register kernels, then Start.
func NewPool(cfg Config) *Pool {
	cfg = cfg.withDefaults()
	p := &Pool{
		cfg:     cfg,
		q:       newFairQueue(cfg.QueueDepth, cfg.Shards),
		kernels: make(map[string]bool),
		idem:    newIdemCache(cfg.IdemTTL),
		drained: make(chan struct{}),
		active:  make(map[*request]struct{}),
		tenants: make(map[string]*tenantStats),
	}
	for i := 0; i < cfg.Shards; i++ {
		opts := []hbc.Option{hbc.Workers(cfg.WorkersPerShard), hbc.WithName(fmt.Sprintf("shard%d", i))}
		if cfg.Heartbeat > 0 {
			opts = append(opts, hbc.Heartbeat(cfg.Heartbeat))
		}
		if cfg.Registry != nil {
			opts = append(opts, hbc.WithMetricsInto(cfg.Registry))
		}
		opts = append(opts, cfg.TeamOptions...)
		p.shards = append(p.shards, &shard{
			id:      i,
			team:    hbc.NewTeam(opts...),
			runners: make(map[string]Runnable),
		})
	}
	if cfg.Registry != nil {
		p.registerMetrics(cfg.Registry)
	}
	return p
}

// Register compiles/builds the named kernel on every shard. Must complete
// before Start; partially built instances are owned by the pool and closed
// at drain even when Register fails partway.
func (p *Pool) Register(name string, build BuildFunc) error {
	if p.started.Load() {
		return ErrStarted
	}
	for _, s := range p.shards {
		r, err := build(s.id, s.team)
		if err != nil {
			return fmt.Errorf("serve: building kernel %q on shard %d: %w", name, s.id, err)
		}
		s.runners[name] = r
	}
	p.kernels[name] = true
	return nil
}

// Kernels returns the registered kernel names, sorted.
func (p *Pool) Kernels() []string {
	names := make([]string, 0, len(p.kernels))
	for n := range p.kernels {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Start launches the shard dispatchers. The kernel table is frozen from
// here on.
func (p *Pool) Start() {
	if p.started.Swap(true) {
		return
	}
	for _, s := range p.shards {
		p.wg.Add(1)
		go p.shardLoop(s)
	}
}

// Do admits and executes one request, blocking until it completes, is shed,
// or its deadline expires. Errors:
//
//   - *ErrOverloaded: shed at admission (queue full), with a retry hint;
//   - ErrDraining: the pool is shutting down;
//   - ErrUnknownKernel (wrapped): no such kernel;
//   - context.DeadlineExceeded / ctx.Err(): the deadline (queue wait plus
//     execution) or the caller's context expired;
//   - *hbc.PanicError: the kernel panicked — on this request only; the
//     shard stays warm.
func (p *Pool) Do(ctx context.Context, req Request) (Result, error) {
	if p.draining.Load() {
		return Result{}, ErrDraining
	}
	if !p.kernels[req.Kernel] {
		return Result{}, fmt.Errorf("%w: %q", ErrUnknownKernel, req.Kernel)
	}
	if req.IdemKey != "" {
		if v, shard, ok := p.idem.get(req.IdemKey); ok {
			// A run with this key already completed and was cached: this is
			// a retry whose original ack was lost. Answer from the cache so
			// the work executes exactly once.
			p.idemHits.Add(1)
			return Result{Value: v, Shard: shard, Deduped: true}, nil
		}
	}
	tenant := req.Tenant
	if tenant == "" {
		tenant = "default"
	}
	ts := p.tenant(tenant)
	ts.requests.Add(1)

	d := req.Deadline
	if d <= 0 {
		d = p.cfg.DefaultDeadline
	}
	if d > p.cfg.MaxDeadline {
		d = p.cfg.MaxDeadline
	}
	rctx, cancel := context.WithTimeout(ctx, d)
	defer cancel()

	r := &request{
		kernel:  req.Kernel,
		tenant:  tenant,
		idemKey: req.IdemKey,
		ctx:     rctx,
		cancel:  cancel,
		enq:     time.Now(),
		done:    make(chan outcome, 1),
	}
	p.trackActive(r, true)
	if !p.q.push(r) {
		p.trackActive(r, false)
		p.shed.Add(1)
		ts.shed.Add(1)
		if p.draining.Load() {
			return Result{}, ErrDraining
		}
		return Result{}, &ErrOverloaded{RetryAfter: p.retryAfter(), QueueDepth: p.q.depth()}
	}
	p.admitted.Add(1)

	select {
	case o := <-r.done:
		p.trackActive(r, false)
		ts.lat.Observe(time.Since(r.enq))
		return o.res, o.err
	case <-rctx.Done():
		// Expired (or caller-cancelled) while queued or mid-run. The
		// dispatcher still owns the request object; it observes the dead
		// context and discards. Record the latency at expiry so admitted
		// latency metrics stay honest about timeouts.
		p.trackActive(r, false)
		ts.lat.Observe(time.Since(r.enq))
		return Result{}, rctx.Err()
	}
}

// tenant returns (creating if needed) the stats record for a tenant.
func (p *Pool) tenant(name string) *tenantStats {
	p.tenantMu.Lock()
	defer p.tenantMu.Unlock()
	ts := p.tenants[name]
	if ts == nil {
		ts = &tenantStats{}
		p.tenants[name] = ts
	}
	return ts
}

func (p *Pool) trackActive(r *request, add bool) {
	p.activeMu.Lock()
	if add {
		p.active[r] = struct{}{}
	} else {
		delete(p.active, r)
	}
	p.activeMu.Unlock()
}

// retryAfter estimates how long until a queue slot frees: the observed mean
// service time scaled by the queue depth per shard, clamped to a sane
// client-backoff range.
func (p *Pool) retryAfter() time.Duration {
	svc := time.Duration(p.svcEWMA.Load())
	if svc <= 0 {
		svc = 10 * time.Millisecond
	}
	est := svc * time.Duration(p.q.depth()/len(p.shards)+1)
	const lo, hi = 5 * time.Millisecond, 2 * time.Second
	if est < lo {
		return lo
	}
	if est > hi {
		return hi
	}
	return est
}

func (p *Pool) updateEWMA(d time.Duration) {
	const alpha = 4 // new = old + (sample-old)/alpha
	for {
		old := p.svcEWMA.Load()
		var next int64
		if old == 0 {
			next = int64(d)
		} else {
			next = old + (int64(d)-old)/alpha
		}
		if p.svcEWMA.CompareAndSwap(old, next) {
			return
		}
	}
}

// shardLoop is one shard's dispatcher: serve fair-queued requests one at a
// time until the queue closes and drains.
func (p *Pool) shardLoop(s *shard) {
	defer p.wg.Done()
	for {
		r := p.q.popFor(s.id)
		if r == nil {
			return
		}
		p.serveOne(s, r)
	}
}

func (p *Pool) serveOne(s *shard, r *request) {
	queued := time.Since(r.enq)
	if err := r.ctx.Err(); err != nil {
		// Expired in the queue: never run it.
		p.expired.Add(1)
		r.done <- outcome{err: err}
		return
	}
	run := s.runners[r.kernel]
	if run == nil {
		r.done <- outcome{err: fmt.Errorf("%w: %q", ErrUnknownKernel, r.kernel)}
		return
	}
	p.inflight.Add(1)
	t0 := time.Now()
	v, err := run.RunCtx(r.ctx)
	dur := time.Since(t0)
	p.inflight.Add(-1)
	p.updateEWMA(dur)
	switch {
	case err == nil:
		p.completed.Add(1)
		if r.idemKey != "" {
			// Cache the completion BEFORE acking (the done send below): once
			// a client can observe the 200, a retry of the same key must hit
			// the cache rather than re-execute.
			p.idem.put(r.idemKey, v, s.id)
		}
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		p.expired.Add(1)
	default:
		p.failed.Add(1)
	}
	r.done <- outcome{res: Result{Value: v, Shard: s.id, Queued: queued, Run: dur}, err: err}
}

// Shards returns the number of shard teams in the pool.
func (p *Pool) Shards() int { return len(p.shards) }

// ShardWorkers returns the worker count of each shard's team.
func (p *Pool) ShardWorkers() int { return p.shards[0].team.Size() }

// Draining reports whether a drain has begun — the bit a /healthz endpoint
// reflects so load balancers stop routing before in-flight work finishes.
func (p *Pool) Draining() bool { return p.draining.Load() }

// Ready reports whether the pool can usefully accept another request right
// now, with a reason when it cannot. Distinct from liveness: a pool that is
// draining, or whose admission queue is saturated (the next request would be
// shed), answers not-ready so an upstream router stops routing BEFORE
// requests start bouncing off the queue. The signal is instantaneous — the
// router's health checker supplies the hysteresis.
func (p *Pool) Ready() (bool, string) {
	if p.draining.Load() {
		return false, "draining"
	}
	if d := p.q.depth(); d >= p.cfg.QueueDepth {
		return false, fmt.Sprintf("queue saturated (%d/%d)", d, p.cfg.QueueDepth)
	}
	return true, "ok"
}

// Drain shuts the pool down gracefully: stop admitting (Do returns
// ErrDraining, Draining flips true), let queued and in-flight requests
// finish, then close every kernel runner and every team, deterministically.
// If ctx expires first, the remaining requests are cancelled through their
// run contexts — they stop at their next safepoint — and Drain still closes
// everything before returning ctx.Err(). Drain is idempotent; concurrent
// calls wait for the first to finish.
func (p *Pool) Drain(ctx context.Context) error {
	p.draining.Store(true)
	p.drainMu.Lock()
	select {
	case <-p.drained:
		p.drainMu.Unlock()
		return p.drainErr
	default:
	}
	p.q.close()
	done := make(chan struct{})
	go func() { p.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		p.cancelActive()
		<-done
		p.drainErr = ctx.Err()
	}
	for _, s := range p.shards {
		for _, r := range s.runners {
			r.Close()
		}
		s.team.Close()
	}
	close(p.drained)
	p.drainMu.Unlock()
	return p.drainErr
}

// cancelActive cancels every admitted, uncompleted request (forced drain).
func (p *Pool) cancelActive() {
	p.activeMu.Lock()
	for r := range p.active {
		r.cancel()
	}
	p.activeMu.Unlock()
}

// Close is Drain with no time bound. Safe to call multiple times.
func (p *Pool) Close() { _ = p.Drain(context.Background()) }

// Stats is a point-in-time snapshot of the pool.
type Stats struct {
	// QueueDepth is the current admission-queue depth; QueueCap its bound.
	QueueDepth, QueueCap int
	// Inflight counts requests executing right now (at most Shards).
	Inflight int
	// Shards and IdleWorkers describe the team pool: IdleWorkers sums parked
	// workers across shards.
	Shards, IdleWorkers int
	// Admitted, Shed, Completed, Failed, Expired are lifetime request
	// counts. Admitted = Completed + Failed + Expired + still-in-system.
	Admitted, Shed, Completed, Failed, Expired int64
	// IdemHits counts requests answered from the idempotency cache (retries
	// of completed runs); these never enter the admission queue and are not
	// in Admitted.
	IdemHits int64
	// IdemEntries is the idempotency cache's current entry count.
	IdemEntries int
	// AffinePops counts dispatches that served a tenant on its home shard,
	// ForeignPops dispatches where the work-conserving fallback crossed
	// homes. Both stay 0 on a single-shard pool (no affinity to keep).
	AffinePops, ForeignPops int64
	// Ready mirrors Pool.Ready; Draining reports drain state.
	Ready    bool
	Draining bool
}

// Stats returns a snapshot of the pool's counters.
func (p *Pool) Stats() Stats {
	idle := 0
	for _, s := range p.shards {
		idle += s.team.IdleWorkers()
	}
	ready, _ := p.Ready()
	affine, foreign := p.q.affinity()
	return Stats{
		AffinePops:  affine,
		ForeignPops: foreign,
		Ready:       ready,
		QueueDepth:  p.q.depth(),
		QueueCap:    p.cfg.QueueDepth,
		Inflight:    int(p.inflight.Load()),
		Shards:      len(p.shards),
		IdleWorkers: idle,
		Admitted:    p.admitted.Load(),
		Shed:        p.shed.Load(),
		Completed:   p.completed.Load(),
		Failed:      p.failed.Load(),
		Expired:     p.expired.Load(),
		IdemHits:    p.idemHits.Load(),
		IdemEntries: p.idem.size(),
		Draining:    p.draining.Load(),
	}
}

// registerMetrics publishes the pool's groups into reg: "serve" for the
// admission controller and queue, "serve_tenant" for per-tenant request
// counts and latency quantiles.
func (p *Pool) registerMetrics(reg *telemetry.Registry) {
	reg.Register("serve", func(emit func(string, float64)) {
		s := p.Stats()
		emit("queue_depth", float64(s.QueueDepth))
		emit("queue_cap", float64(s.QueueCap))
		emit("inflight", float64(s.Inflight))
		emit("shards", float64(s.Shards))
		emit("idle_workers", float64(s.IdleWorkers))
		emit("admitted_total", float64(s.Admitted))
		emit("shed_total", float64(s.Shed))
		emit("completed_total", float64(s.Completed))
		emit("failed_total", float64(s.Failed))
		emit("expired_total", float64(s.Expired))
		emit("idem_hits_total", float64(s.IdemHits))
		emit("idem_entries", float64(s.IdemEntries))
		emit("tenant_affine_pops_total", float64(s.AffinePops))
		emit("tenant_foreign_pops_total", float64(s.ForeignPops))
		if s.Ready {
			emit("ready", 1)
		} else {
			emit("ready", 0)
		}
		if s.Draining {
			emit("draining", 1)
		} else {
			emit("draining", 0)
		}
		emit("service_time_ewma_ms", float64(p.svcEWMA.Load())/float64(time.Millisecond))
	})
	reg.Register("serve_tenant", func(emit func(string, float64)) {
		p.tenantMu.Lock()
		names := make([]string, 0, len(p.tenants))
		for n := range p.tenants {
			names = append(names, n)
		}
		stats := make(map[string]*tenantStats, len(names))
		for _, n := range names {
			stats[n] = p.tenants[n]
		}
		p.tenantMu.Unlock()
		sort.Strings(names)
		for _, n := range names {
			ts := stats[n]
			emit(n+"_requests_total", float64(ts.requests.Load()))
			emit(n+"_shed_total", float64(ts.shed.Load()))
			ts.lat.Collect(n+"_latency", emit)
		}
	})
}
