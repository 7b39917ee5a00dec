package sched

// The scheduler's fast paths, each written once. TestSpawnJoinAllocFree
// holds the owner-only ones to 0 allocs/op under plain `go test ./...`;
// the benchmarks below time the same code:
//
//	go test ./internal/sched -run xxx -bench . -benchmem

import (
	"sync/atomic"
	"testing"

	"hbc/internal/telemetry"
)

// sink defeats dead-code elimination of the benchmark task bodies without
// introducing a data race between workers.
var sink atomic.Int64

// nop is the minimal task body: the fast paths then measure pure scheduler
// overhead (pool, deque, latch), not work.
func nop(w *Worker) {}

// spin is a short compute body, enough that a stolen copy is worth the
// thief's trouble in StealLatency.
func spin(w *Worker) {
	x := int64(1)
	for i := 0; i < 512; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	sink.Store(x)
}

// spawnJoin is the owner fast path: one pooled latch, one spawned task
// popped right back by the same worker, one helping join — the per-fork
// constant factor of the runtime.
func spawnJoin(w *Worker) {
	l := w.NewLatch(1)
	w.Spawn(l, nop)
	l.Done()
	w.HelpUntil(l)
	w.FreeLatch(l)
}

// promotionTriple is the promotion-shaped fast path: the heartbeat
// handler's fork of a task triple (two loop slices + a leftover) joined by
// the promoting worker itself — the clone-optimization path.
func promotionTriple(w *Worker) {
	l := w.NewLatch(1)
	w.Spawn(l, nop) // slice A
	w.Spawn(l, nop) // slice B
	w.Spawn(l, nop) // leftover
	l.Done()
	w.HelpUntil(l)
	w.FreeLatch(l)
}

// fastPath is an owner-only spawn/join shape run on a one-worker team.
// A traced one runs with a live tracer attached and records one event per
// op into the worker's preallocated ring, the way the runtime traces a
// heartbeat: tracing on must not cost an allocation either.
type fastPath struct {
	name   string
	traced bool
	op     func(w *Worker)
}

var fastPaths = []fastPath{
	{"SpawnJoin", false, spawnJoin},
	{"PromotionTriple", false, promotionTriple},
	{"PromotionTripleTraced", true, promotionTriple},
}

// run hands body p's op bound to the only worker of a fresh one-worker
// team whose task and latch free lists are primed, so steady state is
// measured, not first use.
func (p fastPath) run(tb testing.TB, body func(op func())) {
	var tr *telemetry.Tracer // nil: a valid, disabled tracer
	var opts []TeamOption
	if p.traced {
		tr = telemetry.NewTracer(1, 0)
		opts = append(opts, WithTracer(tr))
	}
	team := NewTeam(1, opts...)
	defer team.Close()
	err := team.Run(func(w *Worker) {
		for i := 0; i < 8; i++ {
			promotionTriple(w)
		}
		var seq int64
		body(func() {
			seq++
			tr.Emit(w.ID(), telemetry.KindPromotion, 0, 0, 0, seq, 0)
			p.op(w)
		})
	})
	if err != nil {
		tb.Fatal(err)
	}
}

// TestSpawnJoinAllocFree is the fast-path allocation gate: once the pools
// are warm, every spawn→execute→join shape in fastPaths allocates nothing,
// with the tracer detached or attached.
func TestSpawnJoinAllocFree(t *testing.T) {
	for _, p := range fastPaths {
		t.Run(p.name, func(t *testing.T) {
			p.run(t, func(op func()) {
				if n := testing.AllocsPerRun(100, op); n != 0 {
					t.Errorf("%s allocates %v objects/op, want 0", p.name, n)
				}
			})
		})
	}
}

func BenchmarkFastPath(b *testing.B) {
	for _, p := range fastPaths {
		b.Run(p.name, func(b *testing.B) {
			p.run(b, func(op func()) {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					op()
				}
				b.StopTimer()
			})
		})
	}
}

// BenchmarkStealLatency measures the cross-worker slow path on a
// two-worker team: worker 0 spawns batches of short compute tasks that
// worker 1 must steal to stay busy, and the monitoring counters report the
// scheduler's own ns/steal (time a successful steal spent searching) and
// the steal rate.
func BenchmarkStealLatency(b *testing.B) {
	team := NewTeam(2)
	defer team.Close()
	before := team.Counters()
	const batch = 64
	err := team.Run(func(w *Worker) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l := w.NewLatch(1)
			for j := 0; j < batch; j++ {
				w.Spawn(l, spin)
			}
			l.Done()
			w.HelpUntil(l)
			w.FreeLatch(l)
		}
		b.StopTimer()
	})
	if err != nil {
		b.Fatal(err)
	}
	d := team.Counters().Sub(before)
	if d.Steals > 0 {
		b.ReportMetric(float64(d.StealNanos)/float64(d.Steals), "ns/steal")
	}
	b.ReportMetric(float64(d.Steals)/float64(b.N), "steals/op")
}
