package core

import (
	"fmt"
	"testing"

	"hbc/internal/pulse"
	"hbc/internal/sched"
)

// Micro-benchmarks of the runtime's hot paths. The spmv variants measure
// the driver overhead the paper's Fig. 7 decomposes; the promotion bench
// prices one full three-task split and join.

func benchExec(b *testing.B, opts Options, src pulse.Source, rows int) {
	env := newCSR(rows)
	p := MustCompile(csrNest(), opts)
	team := sched.NewTeam(1)
	defer team.Close()
	x := NewExec(p, team, src, DefaultHeartbeat, env)
	x.Start()
	defer x.Stop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Run()
	}
}

func BenchmarkSpmvDriverNoPolls(b *testing.B) {
	benchExec(b, Options{DisablePromotion: true, StaticChunk: 1 << 30},
		pulse.NewNever(), 20000)
}

func BenchmarkSpmvDriverPolling(b *testing.B) {
	benchExec(b, Options{DisablePromotion: true}, pulse.NewTimer(), 20000)
}

func BenchmarkSpmvHeartbeat(b *testing.B) {
	benchExec(b, Options{}, pulse.NewTimer(), 20000)
}

func BenchmarkSpmvSerialOracle(b *testing.B) {
	env := newCSR(20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.out = env.serial()
	}
}

// BenchmarkPromotion prices a single promotion: every poll fires, so each
// chunk boundary splits, joins, and merges.
func BenchmarkPromotion(b *testing.B) {
	data := make([]int64, 64)
	p := MustCompile(sumNest("promo"), Options{StaticChunk: 16})
	team := sched.NewTeam(1)
	defer team.Close()
	x := NewExec(p, team, pulse.NewAlways(), DefaultHeartbeat, &sumEnv{data: data})
	x.Start()
	defer x.Stop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Run()
	}
	b.StopTimer()
	promos := x.Stats().Promotions()
	if promos > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(promos), "ns/promotion")
	}
}

func BenchmarkRunSeqVsStatic(b *testing.B) {
	env := newCSR(20000)
	p := MustCompile(csrNest(), Options{})
	b.Run("seq", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.RunSeq(env)
		}
	})
	b.Run("static-4workers", func(b *testing.B) {
		team := sched.NewTeam(4)
		defer team.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.RunStatic(team, env)
		}
	})
}

// BenchmarkPolicyNextChunk prices one chunk deal under Adaptive Chunking
// and under a fixed size — the per-refill fast path
// TestPolicyNextChunkAllocFree gates to 0 allocs/op.
func BenchmarkPolicyNextChunk(b *testing.B) {
	for _, size := range []int64{0, 16} {
		b.Run(fmt.Sprintf("static=%d", size), func(b *testing.B) {
			c := newChunker(1, 1, Options{StaticChunk: size}.withDefaults())
			b.ReportAllocs()
			var total int64
			for i := 0; i < b.N; i++ {
				total += c.next(0, 0)
			}
			chunkSink = total
		})
	}
}

// chunkSink keeps the benchmarked deals from being optimized away.
var chunkSink int64
