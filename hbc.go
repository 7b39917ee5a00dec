// Package hbc is a Go implementation of heartbeat scheduling for loop-based
// nested parallelism, reproducing the system of "Compiling Loop-Based Nested
// Parallelism for Irregular Workloads" (ASPLOS 2024).
//
// Heartbeat scheduling solves the granularity-control problem of fork-join
// parallel loops: expressing all available parallelism drowns irregular
// workloads in task overheads, while chunking iterations statically starves
// cores or unbalances them, with the right setting depending on the input.
// Under heartbeat scheduling a program runs sequentially and promotes latent
// parallelism only at heartbeats — periodic events arriving at a fixed rate —
// so task creation cost is amortized against real work by construction,
// while the asymptotic parallelism of the source program is preserved.
//
// # Quick start
//
//	team := hbc.NewTeam()          // workers = NumCPU, 100µs heartbeat
//	defer team.Close()
//	// All iterations of the range are logically parallel; the runtime
//	// decides at heartbeats how much of that parallelism to realize.
//	team.For(0, n, func(lo, hi int64) {
//	    for i := lo; i < hi; i++ { out[i] = f(in[i]) }
//	})
//
// # Nested loops
//
// Declare the whole DOALL nest — the analog of annotating every loop with
// `#pragma omp parallel for` and compiling with the paper's HBC — and the
// runtime promotes whichever level has parallelism left when a heartbeat
// arrives (outermost first):
//
//	nest := &hbc.Nest{Name: "spmv", Root: &hbc.Loop{ ... }}
//	prog, err := hbc.Compile(nest, hbc.Config{})
//	r := team.Load(prog, env)
//	defer r.Close()
//	r.Run()
//
// # Failure semantics
//
// Runner.RunCtx runs a nest with defined failure behaviour: cancelling the
// context (or passing one with a deadline) stops every task of the run at
// its next safepoint — the same chunk boundaries and interior latches where
// heartbeats are polled — and returns ctx.Err(); a panicking loop body is
// captured as a typed *PanicError naming the faulting loop and iteration,
// cancels the rest of the run the same way, and is returned as an error once
// all tasks have drained. The Team, Runner, and heartbeat source remain
// usable afterwards. A heartbeat source that stalls for good only stops
// promotions: the run finishes serially, with the serial elision's result.
//
// See examples/ for complete programs, and DESIGN.md for how this library
// maps onto the paper's compiler and runtime.
package hbc

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"hbc/internal/analysis"
	"hbc/internal/core"
	"hbc/internal/loopnest"
	"hbc/internal/pulse"
	"hbc/internal/sched"
	"hbc/internal/telemetry"
)

// PanicError is the error returned by Runner.RunCtx (and carried by the
// panic of Runner.Run) when a loop body, hook, or bounds function panics
// during a run. It identifies the faulting loop by its (level, index) ID and
// name, snapshots the induction variables from the loop-slice-task context
// chain, and holds the original panic value plus the worker stack.
type PanicError = core.PanicError

// ErrTeamClosed is returned when a run is attempted on a closed Team.
var ErrTeamClosed = sched.ErrTeamClosed

// Re-exported loop-nest IR types; see package loopnest for field semantics.
type (
	// Nest is a tree of DOALL loops with a single root.
	Nest = loopnest.Nest
	// Loop describes one DOALL loop: bounds, a leaf body or children, and
	// optional per-iteration hooks and reduction.
	Loop = loopnest.Loop
	// Reduction declares an associative combine across a loop's iterations.
	Reduction = loopnest.Reduction
	// Slice is the task entry the runtime drives every loop through:
	// generated kernels emit a monomorphic one for every level
	// (internal/codegen), and Compile builds one over the closures of a
	// loop that has none. On a leaf it is the chunking loop around the
	// body; on an interior loop, whole iterations that call the
	// children's slices directly.
	Slice = loopnest.Slice
	// SliceRT is the runtime a Slice spends its budget from and polls at
	// promotion-ready points; interior slices also reach their children's
	// runtimes and accumulators through it and record a stop inside an
	// iteration with it.
	SliceRT = loopnest.SliceRT
)

// Topology describes a hierarchy of worker groups for topology-aware
// stealing: workers prefer victims in their own leaf group and widen the
// search outward only after the near tiers come up empty. The zero value is
// the flat topology (classic single-tier random-victim stealing). Construct
// one with ParseTopology ("2x4", "2x2x2"), DetectTopology (GOMAXPROCS
// grouped by a fan-out), or leave it unset and let the HBC_TOPOLOGY
// environment variable select one (EnvTopology).
type Topology = sched.Topology

// ParseTopology parses a topology spec: "" or "flat" for the flat topology,
// otherwise "AxBx..." fan-outs outermost first ("2x4", "2x2x2").
var ParseTopology = sched.ParseTopology

// MustParseTopology is ParseTopology panicking on error, for specs known at
// compile time.
var MustParseTopology = sched.MustParseTopology

// DetectTopology approximates the host hierarchy for n workers by grouping
// them with the given fan-out (workers per group) — the hwloc-less
// heuristic of hierarchical OpenMP runtimes.
var DetectTopology = sched.DetectTopology

// EnvTopology is the environment variable consulted when a team is created
// without an explicit WithTopology; see sched.EnvTopology.
const EnvTopology = sched.EnvTopology

// Team is a pool of workers executing heartbeat-scheduled loop nests.
type Team struct {
	ws        *sched.Team
	nworkers  int
	heartbeat time.Duration
	// topo is the explicit worker-group hierarchy (WithTopology); topoSet
	// distinguishes an explicit flat topology from "unset, consult
	// HBC_TOPOLOGY".
	topo    Topology
	topoSet bool
	// tel is the unified telemetry layer, nil unless WithTelemetry.
	tel *telemetry.Telemetry
	// telRing is the requested per-worker ring capacity; telOn records that
	// WithTelemetry was passed (the ring size alone cannot, since 0 selects
	// the default).
	telRing int
	telOn   bool
	// sharedReg, if non-nil, receives the team's metric groups instead of a
	// fresh registry (WithMetricsInto — the team-pool option).
	sharedReg *telemetry.Registry
	// name prefixes the team's metric-group names, so shards of a pool stay
	// distinguishable inside a shared registry.
	name string
	// wrapSource, if non-nil, wraps every heartbeat source Load creates —
	// the injection point fault testing uses.
	wrapSource func(pulse.Source) pulse.Source
}

// Option configures a Team.
type Option func(*Team)

// Workers sets the worker count. Defaults to runtime.NumCPU().
func Workers(n int) Option { return func(t *Team) { t.nworkers = n } }

// Heartbeat sets the heartbeat period. Defaults to 100µs, the paper's rate.
func Heartbeat(d time.Duration) Option { return func(t *Team) { t.heartbeat = d } }

// WithTopology groups the team's workers into the given hierarchy for
// topology-aware stealing: victims are tried nearest-first (own leaf group,
// then sibling groups, then the rest of the team), cross-group submissions
// go through per-group inboxes, and Runner.Pin can anchor a nest to a
// group. The topology is fitted to the worker count (Topology.Fit), so a
// "2x4" spec on a 6-worker team becomes "2x3". Passing the zero Topology
// explicitly selects flat stealing and suppresses the HBC_TOPOLOGY
// environment override, which otherwise applies to teams created without
// this option.
func WithTopology(topo Topology) Option {
	return func(t *Team) {
		t.topo = topo
		t.topoSet = true
	}
}

// WithTelemetry enables the unified telemetry layer (internal/telemetry):
// a per-worker ring-buffer tracer recording promotions, steals, parks and
// wakes, heartbeat deliveries, and Adaptive Chunking retunes — exportable
// as Chrome trace_event JSON or a text timeline — and a metrics registry
// snapshotting scheduler, pulse, and run statistics in Prometheus and
// expvar form, servable from an opt-in HTTP endpoint
// (Telemetry().Registry.Serve). eventsPerWorker sizes each worker's event
// ring; <= 0 selects the default (telemetry.DefaultEventsPerWorker). A
// full ring overwrites its oldest events and counts them as dropped.
//
// Telemetry off (the default) costs nothing: the spawn/join fast path
// stays allocation-free and event sites are gated on one pointer test.
func WithTelemetry(eventsPerWorker int) Option {
	return func(t *Team) {
		t.telOn = true
		t.telRing = eventsPerWorker
	}
}

// WithMetricsInto enables telemetry like WithTelemetry (with the default
// ring size) but registers the team's metric groups into reg instead of a
// fresh registry. This is the team-pool construction option: every shard of
// a serving pool publishes into the pool's single registry, so one scrape
// endpoint covers the whole pool. Combine with WithName to keep shards
// distinguishable; without it, colliding group names get numeric suffixes.
func WithMetricsInto(reg *telemetry.Registry) Option {
	return func(t *Team) {
		t.telOn = true
		t.sharedReg = reg
	}
}

// WithName names the team. The name prefixes the team's metric-group names
// (e.g. "shard0_sched" instead of "sched"), which is what makes a shared
// registry legible when a pool of teams publishes into it.
func WithName(name string) Option { return func(t *Team) { t.name = name } }

// WithSourceWrapper installs a hook wrapping every heartbeat source the team
// creates for a loaded Runner. This is the injection point for delivery
// faults (see internal/chaos.WrapSource): a serving stack's fault tests
// stall or drop beats on a live team without reaching into the runtime. The
// wrapper receives the team's pulse.Timer and returns the source the runner
// polls. A nil wrap is ignored.
func WithSourceWrapper(wrap func(pulse.Source) pulse.Source) Option {
	return func(t *Team) { t.wrapSource = wrap }
}

// NewTeam creates a worker team. Close must be called to release it.
func NewTeam(opts ...Option) *Team {
	t := &Team{heartbeat: core.DefaultHeartbeat, nworkers: runtime.NumCPU()}
	for _, o := range opts {
		o(t)
	}
	if t.nworkers < 1 {
		t.nworkers = 1
	}
	var sopts []sched.TeamOption
	if t.topoSet {
		sopts = append(sopts, sched.WithTopology(t.topo))
	}
	if t.telOn {
		t.tel = telemetry.New(t.nworkers, t.telRing)
		if t.sharedReg != nil {
			t.tel.Registry = t.sharedReg
		}
		sopts = append(sopts, sched.WithTracer(t.tel.Tracer))
	}
	t.ws = sched.NewTeam(t.nworkers, sopts...)
	if t.tel != nil {
		ws, tr := t.ws, t.tel.Tracer
		t.tel.Registry.Register(t.group("sched"), func(emit func(string, float64)) {
			c := ws.Counters()
			emit("spawned_total", float64(c.Spawned))
			emit("executed_total", float64(c.Executed))
			emit("steals_total", float64(c.Steals))
			emit("steals_local_total", float64(c.StealsLocal()))
			emit("steals_remote_total", float64(c.StealsRemote))
			emit("steal_search_ns_total", float64(c.StealNanos))
			emit("parks_total", float64(c.Parks))
			emit("wakes_total", float64(c.Wakes))
			emit("task_pool_hits_total", float64(c.TaskPoolHits))
			emit("task_pool_misses_total", float64(c.TaskPoolMisses))
			emit("latch_pool_hits_total", float64(c.LatchPoolHits))
			emit("latch_pool_misses_total", float64(c.LatchPoolMisses))
		})
		t.tel.Registry.Register(t.group("trace"), func(emit func(string, float64)) {
			total, dropped := tr.Totals()
			emit("events_total", float64(total))
			emit("events_dropped_total", float64(dropped))
		})
	}
	return t
}

// group prefixes a metric-group name with the team's name, if set.
func (t *Team) group(g string) string {
	if t.name == "" {
		return g
	}
	return t.name + "_" + g
}

// Telemetry returns the team's telemetry layer, or nil unless the team was
// created with WithTelemetry.
func (t *Team) Telemetry() *telemetry.Telemetry { return t.tel }

// Size returns the number of workers.
func (t *Team) Size() int { return t.ws.Size() }

// Topology returns the worker-group hierarchy in force, fitted to the team's
// worker count (the zero Topology when the team steals flat).
func (t *Team) Topology() Topology { return t.ws.Topology() }

// Groups returns the number of leaf groups of the team's topology (1 when
// flat). Valid group arguments to Runner.Pin are 0..Groups()-1.
func (t *Team) Groups() int { return t.ws.Groups() }

// Name returns the team's name ("" unless WithName).
func (t *Team) Name() string { return t.name }

// IdleWorkers returns the number of workers currently parked — the
// saturation signal an admission controller reads per request (one atomic
// load). A fully busy team reports 0.
func (t *Team) IdleWorkers() int { return t.ws.Idle() }

// InflightRuns returns the number of top-level runs currently admitted on
// the team (submitted or executing).
func (t *Team) InflightRuns() int { return t.ws.Inflight() }

// Close releases the team's workers. No loops may be running.
func (t *Team) Close() { t.ws.Close() }

// SchedStats is a snapshot of scheduler activity: task, steal, and parking
// counts plus fast-path pool effectiveness. Counters accumulate over the
// team's lifetime; per-run deltas are the difference of two snapshots (see
// Sub). Collection is always on — each event is one uncontended per-worker
// atomic add — so reading costs the aggregation, not the hot path.
type SchedStats struct {
	// Spawned counts tasks pushed (promotion forks plus root submissions);
	// Executed counts tasks run to completion.
	Spawned, Executed int64
	// Steals counts tasks taken from another worker's deque; StealsRemote
	// counts the subset that crossed a leaf-group boundary of the team's
	// topology (0 on a flat team); StealNanos is the total time those
	// successful steals spent searching for a victim.
	Steals, StealsRemote, StealNanos int64
	// Parks counts workers giving up spinning to block; Wakes counts parks
	// ended by an explicit wake signal from a spawner.
	Parks, Wakes int64
	// Pool hit/miss counts for the task and latch free lists. Misses are
	// heap allocations; a warm fast path shows only hits.
	TaskPoolHits, TaskPoolMisses   int64
	LatchPoolHits, LatchPoolMisses int64
}

// StealsLocal returns the number of steals that stayed within the thief's
// leaf group (equal to Steals on a flat team).
func (s SchedStats) StealsLocal() int64 { return s.Steals - s.StealsRemote }

// AvgStealLatency returns the mean time a successful steal spent searching.
func (s SchedStats) AvgStealLatency() time.Duration {
	if s.Steals == 0 {
		return 0
	}
	return time.Duration(s.StealNanos / s.Steals)
}

// Sub returns the fieldwise difference s - o, for per-run deltas.
func (s SchedStats) Sub(o SchedStats) SchedStats {
	s.Spawned -= o.Spawned
	s.Executed -= o.Executed
	s.Steals -= o.Steals
	s.StealsRemote -= o.StealsRemote
	s.StealNanos -= o.StealNanos
	s.Parks -= o.Parks
	s.Wakes -= o.Wakes
	s.TaskPoolHits -= o.TaskPoolHits
	s.TaskPoolMisses -= o.TaskPoolMisses
	s.LatchPoolHits -= o.LatchPoolHits
	s.LatchPoolMisses -= o.LatchPoolMisses
	return s
}

// SchedStats returns the team-wide scheduler counters, aggregated across
// workers at call time.
func (t *Team) SchedStats() SchedStats {
	c := t.ws.Counters()
	return SchedStats{
		Spawned:         c.Spawned,
		Executed:        c.Executed,
		Steals:          c.Steals,
		StealsRemote:    c.StealsRemote,
		StealNanos:      c.StealNanos,
		Parks:           c.Parks,
		Wakes:           c.Wakes,
		TaskPoolHits:    c.TaskPoolHits,
		TaskPoolMisses:  c.TaskPoolMisses,
		LatchPoolHits:   c.LatchPoolHits,
		LatchPoolMisses: c.LatchPoolMisses,
	}
}

// PromotionPolicy selects which loop a promotion splits. See the core
// package for the ablation semantics.
type PromotionPolicy = core.Policy

// Promotion policies: the paper's outer-loop-first default plus the two
// ablations (Experiment 19).
const (
	OuterFirst = core.PolicyOuterFirst
	InnerFirst = core.PolicyInnerFirst
	SelfOnly   = core.PolicySelfOnly
)

// Config tunes compilation of a nest; the zero value reproduces the paper's
// defaults (HBC mode, adaptive chunking, target 4 polls, window 8,
// outer-loop-first promotion).
type Config struct {
	// TPAL switches promotions to the prior-work baseline: leftover work on
	// the promoting worker's critical path.
	TPAL bool
	// Policy selects the promotion target (default outer-loop-first).
	Policy PromotionPolicy
	// StaticChunk, if > 0, disables adaptive chunking in favor of this
	// fixed leaf chunk size (1 polls at every iteration: the paper's "No
	// chunking"). A negative size is a Compile error.
	StaticChunk int64
	// TargetPolls and WindowSize tune Adaptive Chunking (defaults 4 and 8).
	TargetPolls int64
	WindowSize  int
	// DisablePromotion compiles the full heartbeat machinery but never
	// promotes, for overhead measurement.
	DisablePromotion bool
	// Facts attaches the static analyzer's fact record for the kernel this
	// nest was lowered from (analysis.BuildFacts). The compiled Program
	// caches it (Program.Facts) for downstream consumers and, unless
	// InitialChunk is also set, the facts' leaf cost estimate seeds
	// Adaptive Chunking's starting chunk so the first heartbeat window
	// begins near the right granularity instead of at 1.
	Facts *analysis.Facts
	// InitialChunk explicitly seeds Adaptive Chunking's starting chunk
	// size, overriding any facts-derived hint. 0 means "derive from Facts,
	// else start at 1 (the paper's default)".
	InitialChunk int64
}

func (c Config) coreOptions() core.Options {
	o := core.Options{
		Policy:           c.Policy,
		TargetPolls:      c.TargetPolls,
		WindowSize:       c.WindowSize,
		StaticChunk:      c.StaticChunk,
		InitialChunk:     c.InitialChunk,
		DisablePromotion: c.DisablePromotion,
	}
	if o.InitialChunk == 0 && c.Facts != nil {
		o.InitialChunk = c.Facts.LeafChunkHint()
	}
	if c.TPAL {
		o.Mode = core.ModeTPAL
	}
	return o
}

// Program is a compiled loop nest ready to run on any Team.
type Program struct {
	p     *core.Program
	facts *analysis.Facts
}

// Facts returns the analysis fact record attached at compile time
// (Config.Facts), or nil.
func (p *Program) Facts() *analysis.Facts { return p.facts }

// Compile lowers a loop nest through the heartbeat middle-end: loop-slice
// task generation, chunking insertion, leftover-task generation, and task
// linking (paper §3). Before lowering, the nest is vetted
// (internal/analysis): structural violations and broken Reduction contracts
// — e.g. a Fresh that hands every task the same accumulator — are rejected
// here rather than surfacing as races at run time.
func Compile(nest *Nest, cfg Config) (*Program, error) {
	if diags := analysis.VetNest(nest); analysis.HasErrors(diags) {
		var msgs []string
		for _, d := range diags {
			if d.Severity == analysis.Err {
				msgs = append(msgs, d.Msg)
			}
		}
		return nil, fmt.Errorf("hbc: invalid nest: %s", strings.Join(msgs, "; "))
	}
	p, err := core.Compile(nest, cfg.coreOptions())
	if err != nil {
		return nil, err
	}
	return &Program{p: p, facts: cfg.Facts}, nil
}

// MustCompile is Compile panicking on error, for statically-known nests.
func MustCompile(nest *Nest, cfg Config) *Program {
	p, err := Compile(nest, cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// RunSeq executes the nest sequentially (the serial elision), returning the
// root reduction accumulator if any.
func (p *Program) RunSeq(env any) any { return p.p.RunSeq(env) }

// RunStatic executes the nest under static block scheduling on the team —
// the complementary policy the paper's conclusion recommends for regular
// workloads (§6.8): one contiguous block of the root loop per worker, no
// polls, no promotions.
func (p *Program) RunStatic(t *Team, env any) any { return p.p.RunStatic(t.ws, env) }

// Leftovers returns the number of leftover tasks in the compiled table.
func (p *Program) Leftovers() int { return p.p.LeftoverCount() }

// Runner binds a compiled Program to a Team and an environment. Adaptive
// chunking state persists across Run calls, so repeated invocations keep
// adapting (the paper's Fig. 11 scenario). Close releases the heartbeat
// source.
type Runner struct {
	x   *core.Exec
	tel *telemetry.Telemetry
}

// Load prepares a Program for execution on the team with the given
// environment, starting the heartbeat source. On a team created with
// WithTelemetry, the runner's promotions, heartbeat detections, and chunk
// retunes are traced, and its run, pulse, and chunk statistics are
// registered with the metrics registry under the nest's name.
func (t *Team) Load(p *Program, env any) *Runner {
	var src pulse.Source = pulse.NewTimer()
	if t.wrapSource != nil {
		src = t.wrapSource(src)
	}
	x := core.NewExec(p.p, t.ws, src, t.heartbeat, env)
	if t.tel != nil {
		x.SetTracer(t.tel.Tracer)
		t.registerRunner(p, x)
	}
	x.Start()
	return &Runner{x: x, tel: t.tel}
}

// registerRunner exposes a loaded runner's statistics through the metrics
// registry: promotion and task counts, heartbeat delivery statistics, and
// the live per-worker AC chunk sizes.
func (t *Team) registerRunner(p *Program, x *core.Exec) {
	name := p.p.Nest.Name
	if name == "" {
		name = "nest"
	}
	workers := t.ws.Size()
	leaves := p.p.Leaves()
	t.tel.Registry.Register(t.group("run_"+name), func(emit func(string, float64)) {
		s := x.Stats()
		emit("promotions_total", float64(s.Promotions()))
		emit("tasks_forked_total", float64(s.TasksForked()))
		emit("leftover_runs_total", float64(s.LeftoverRuns()))
		for lvl, n := range s.ByLevel() {
			emit(fmt.Sprintf("promotions_level_%d_total", lvl), float64(n))
		}
		ps := x.Pulse()
		emit("pulse_generated_total", float64(ps.Generated))
		emit("pulse_detected_total", float64(ps.Detected))
		emit("pulse_missed_total", float64(ps.Missed))
		emit("pulse_polls_total", float64(ps.Polls))
		emit("pulse_lag_mean_ns", float64(ps.LagMean))
		emit("pulse_lag_max_ns", float64(ps.LagMax))
		for w := 0; w < workers; w++ {
			chunks := x.Chunks(w)
			for ord := 0; ord < leaves && ord < len(chunks); ord++ {
				emit(fmt.Sprintf("ac_chunk_w%d_leaf%d", w, ord), float64(chunks[ord]))
			}
		}
	})
}

// Telemetry returns the telemetry layer of the team this runner was loaded
// on, or nil unless the team was created with WithTelemetry.
func (r *Runner) Telemetry() *telemetry.Telemetry { return r.tel }

// Pin anchors this runner's subsequent runs to one leaf group of the team's
// topology: the root task is submitted to that group's inbox, so the nest
// starts there and spreads further only when the widening steal search pulls
// work outward. Valid groups are 0..Team.Groups()-1; out-of-range values
// make the next run return an error. Pin(-1) restores unpinned submission.
// On a flat team Pin(0) is equivalent to not pinning.
func (r *Runner) Pin(group int) { r.x.Pin(group) }

// PinnedGroup returns the group this runner is pinned to, or -1 if unpinned.
func (r *Runner) PinnedGroup() int { return r.x.PinnedGroup() }

// Run executes one invocation of the nest, blocking until every iteration
// completed, and returns the root reduction accumulator (nil if none).
//
// If the nest fails — a loop body panics, or the team is closed — Run
// panics with the *PanicError (or ErrTeamClosed) that RunCtx would have
// returned, after detaching the heartbeat source so a failed run cannot
// strand a goroutine a wrapped source started. Use RunCtx to get an error
// instead, with the Runner left usable.
func (r *Runner) Run() any { return r.x.Run() }

// RunCtx executes one invocation of the nest under ctx and returns the root
// reduction accumulator (nil if none).
//
// Cancellation is cooperative: when ctx is cancelled or its deadline
// passes, every task of the run — promoted slice tasks and leftover tasks
// included — stops at its next safepoint (the chunk boundaries and interior
// latches where heartbeats are polled), all fork-join joins drain, and
// RunCtx returns ctx.Err(). A panic in a loop body, hook, or bounds
// function is returned as a *PanicError (first panic wins; the rest of the
// run is cancelled the same way). After an error the Team and Runner remain
// usable: a subsequent RunCtx starts a fresh invocation. Side effects of
// iterations that executed before the abort are visible; the reduction
// result of a failed run is discarded.
func (r *Runner) RunCtx(ctx context.Context) (any, error) { return r.x.RunCtx(ctx) }

// Close releases the heartbeat source. Close is idempotent and safe after a
// failed run.
func (r *Runner) Close() { r.x.Stop() }

// Stats exposes the runtime counters of this Runner.
func (r *Runner) Stats() *core.RunStats { return r.x.Stats() }

// PulseStats exposes heartbeat delivery statistics.
func (r *Runner) PulseStats() pulse.Stats { return r.x.Pulse() }

// Chunks returns worker w's current per-leaf chunk sizes.
func (r *Runner) Chunks(w int) []int64 { return r.x.Chunks(w) }
