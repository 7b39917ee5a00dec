package hbc

// Benchmark harness: one testing.B family per paper figure/table, runnable
// with `go test -bench=. -benchmem`. Each family reproduces the figure's
// engine matrix at bench scale (inputs shrunk ~10x from the CLI defaults so
// the full sweep stays tractable); `go run ./cmd/hbcc fig -fig N` runs the
// full-scale versions with median-of-runs reporting.

import (
	"fmt"
	"testing"
	"time"

	"hbc/internal/core"
	"hbc/internal/omp"
	"hbc/internal/pulse"
	"hbc/internal/sched"
	"hbc/internal/workloads"
)

const benchScale = 0.1

func benchWorkers() int { return 2 }

func prepareBench(b *testing.B, name string) workloads.Workload {
	b.Helper()
	w, err := workloads.New(name)
	if err != nil {
		b.Fatal(err)
	}
	w.Prepare(benchScale)
	return w
}

func benchSerial(b *testing.B, w workloads.Workload) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Serial()
	}
}

func benchOMP(b *testing.B, w workloads.Workload, cfg workloads.OMPConfig) {
	pool := omp.NewPool(benchWorkers())
	defer pool.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.OMP(pool, cfg)
	}
}

func benchHBC(b *testing.B, w workloads.Workload, src pulse.Source, opts core.Options) {
	team := sched.NewTeam(benchWorkers())
	defer team.Close()
	drv := workloads.NewDriver(team, src, core.DefaultHeartbeat, opts)
	defer drv.Close()
	if err := w.BindHBC(drv); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.RunHBC(drv)
	}
}

// BenchmarkFig04 is the headline comparison on the irregular set: serial vs
// OpenMP dynamic (outermost only, chunk 1) vs HBC.
func BenchmarkFig04(b *testing.B) {
	for _, name := range workloads.Irregular() {
		w := prepareBench(b, name)
		b.Run(name+"/serial", func(b *testing.B) { benchSerial(b, w) })
		b.Run(name+"/omp-dynamic", func(b *testing.B) {
			benchOMP(b, w, workloads.OMPConfig{Sched: omp.Dynamic, Chunk: 1})
		})
		b.Run(name+"/hbc", func(b *testing.B) {
			benchHBC(b, w, pulse.NewTimer(), core.Options{})
		})
	}
}

// BenchmarkFig05 runs the irregular set under HBC and reports promotions
// per level as custom metrics.
func BenchmarkFig05(b *testing.B) {
	for _, name := range workloads.Irregular() {
		w := prepareBench(b, name)
		b.Run(name, func(b *testing.B) {
			team := sched.NewTeam(benchWorkers())
			defer team.Close()
			drv := workloads.NewDriver(team, pulse.NewTimer(), core.DefaultHeartbeat, core.Options{})
			defer drv.Close()
			if err := w.BindHBC(drv); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.RunHBC(drv)
			}
			b.StopTimer()
			promos, byLevel := drv.Stats()
			if promos > 0 {
				for lvl, v := range byLevel {
					b.ReportMetric(100*float64(v)/float64(promos), fmt.Sprintf("lvl%d-pct", lvl))
				}
			}
		})
	}
}

// BenchmarkFig06 compares HBC against the TPAL configuration (serial
// leftover, static chunks) on the iterative set. Both arms poll a
// pulse.Timer: Go has no user-level interrupts for TPAL's ping thread.
func BenchmarkFig06(b *testing.B) {
	for _, name := range workloads.TPALSet() {
		w := prepareBench(b, name)
		b.Run(name+"/tpal", func(b *testing.B) {
			benchHBC(b, w, pulse.NewTimer(), core.Options{
				Mode:  core.ModeTPAL,
				Chunk: core.ChunkPolicy{Kind: core.ChunkStatic, Size: 32},
			})
		})
		b.Run(name+"/hbc", func(b *testing.B) {
			benchHBC(b, w, pulse.NewTimer(), core.Options{})
		})
	}
}

// BenchmarkFig07 measures the machinery overhead with promotion disabled on
// one worker: sequential execution paying outlining/chunking/polling costs.
func BenchmarkFig07(b *testing.B) {
	for _, name := range []string{"spmv-arrowhead", "spmv-powerlaw", "mandelbrot", "plus-reduce-array"} {
		w := prepareBench(b, name)
		b.Run(name+"/serial", func(b *testing.B) { benchSerial(b, w) })
		b.Run(name+"/machinery", func(b *testing.B) {
			benchHBC(b, w, pulse.NewNever(), core.Options{
				DisablePromotion: true,
				Chunk:            core.ChunkPolicy{Kind: core.ChunkStatic, Size: 1 << 30},
			})
		})
		b.Run(name+"/chunked", func(b *testing.B) {
			benchHBC(b, w, pulse.NewNever(), core.Options{DisablePromotion: true})
		})
		b.Run(name+"/polled", func(b *testing.B) {
			benchHBC(b, w, pulse.NewTimer(), core.Options{DisablePromotion: true})
		})
	}
}

// BenchmarkFig08 measures polling overhead by chunking mechanism.
func BenchmarkFig08(b *testing.B) {
	for _, name := range workloads.TPALSet() {
		w := prepareBench(b, name)
		b.Run(name+"/no-chunking", func(b *testing.B) {
			benchHBC(b, w, pulse.NewTimer(), core.Options{
				DisablePromotion: true,
				Chunk:            core.ChunkPolicy{Kind: core.ChunkNone},
			})
		})
		b.Run(name+"/static-chunking", func(b *testing.B) {
			benchHBC(b, w, pulse.NewTimer(), core.Options{
				DisablePromotion: true,
				Chunk:            core.ChunkPolicy{Kind: core.ChunkStatic, Size: 32},
			})
		})
		b.Run(name+"/adaptive-chunking", func(b *testing.B) {
			benchHBC(b, w, pulse.NewTimer(), core.Options{DisablePromotion: true})
		})
	}
}

// mandelWithInput prepares mandelbrot pointed at one of the Fig. 10 inputs.
func mandelWithInput(b *testing.B, high bool) workloads.Workload {
	w := prepareBench(b, "mandelbrot")
	type inputs interface {
		UseHighLatencyInput()
		UseLowLatencyInput()
	}
	if high {
		w.(inputs).UseHighLatencyInput()
	} else {
		w.(inputs).UseLowLatencyInput()
	}
	return w
}

// BenchmarkFig10 sweeps static chunk sizes over the two mandelbrot inputs.
func BenchmarkFig10(b *testing.B) {
	for _, high := range []bool{true, false} {
		label := "input2-low"
		if high {
			label = "input1-high"
		}
		w := mandelWithInput(b, high)
		for _, c := range []int64{1, 16, 256, 1024} {
			b.Run(fmt.Sprintf("%s/chunk-%d", label, c), func(b *testing.B) {
				benchHBC(b, w, pulse.NewTimer(), core.Options{
					Chunk: core.ChunkPolicy{Kind: core.ChunkStatic, Size: c},
				})
			})
		}
	}
}

// BenchmarkFig11 runs the mixed-input mandelbrot sequence under static
// chunking and Adaptive Chunking.
func BenchmarkFig11(b *testing.B) {
	w := prepareBench(b, "mandelbrot")
	type inputs interface {
		UseHighLatencyInput()
		UseLowLatencyInput()
	}
	mixed := func(run func()) {
		for i := 0; i < 10; i++ {
			if i%2 == 0 {
				w.(inputs).UseHighLatencyInput()
			} else {
				w.(inputs).UseLowLatencyInput()
			}
			run()
		}
	}
	run := func(b *testing.B, opts core.Options) {
		team := sched.NewTeam(benchWorkers())
		defer team.Close()
		drv := workloads.NewDriver(team, pulse.NewTimer(), core.DefaultHeartbeat, opts)
		defer drv.Close()
		if err := w.BindHBC(drv); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mixed(func() { w.RunHBC(drv) })
		}
	}
	for _, c := range []int64{1, 32, 512} {
		b.Run(fmt.Sprintf("static-%d", c), func(b *testing.B) {
			run(b, core.Options{Chunk: core.ChunkPolicy{Kind: core.ChunkStatic, Size: c}})
		})
	}
	b.Run("adaptive", func(b *testing.B) { run(b, core.Options{}) })
}

// BenchmarkFig12 runs the four Fig. 12 matrices under Adaptive Chunking and
// reports the final worker-0 chunk size as a metric.
func BenchmarkFig12(b *testing.B) {
	for _, name := range []string{"spmv-arrowhead", "spmv-powerlaw", "spmv-powerlaw-reverse", "spmv-random"} {
		w := prepareBench(b, name)
		b.Run(name, func(b *testing.B) {
			team := sched.NewTeam(benchWorkers())
			defer team.Close()
			drv := workloads.NewDriver(team, pulse.NewTimer(), core.DefaultHeartbeat, core.Options{})
			defer drv.Close()
			if err := w.BindHBC(drv); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.RunHBC(drv)
			}
			b.StopTimer()
			b.ReportMetric(float64(drv.Exec("spmv").Chunks(0)[0]), "final-chunk")
		})
	}
}

// BenchmarkFig13 sweeps the target polling count, reporting the heartbeat
// detection rate as a metric.
func BenchmarkFig13(b *testing.B) {
	w := prepareBench(b, "spmv-powerlaw")
	for _, target := range []int64{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("target-%d", target), func(b *testing.B) {
			src := pulse.NewTimer()
			team := sched.NewTeam(benchWorkers())
			defer team.Close()
			drv := workloads.NewDriver(team, src, core.DefaultHeartbeat, core.Options{TargetPolls: target})
			defer drv.Close()
			if err := w.BindHBC(drv); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.RunHBC(drv)
			}
			b.StopTimer()
			b.ReportMetric(src.Stats().DetectionRate(), "detection-pct")
		})
	}
}

// BenchmarkFig14 sweeps the OpenMP dynamic chunk size on the
// manually-annotated irregular benchmarks.
func BenchmarkFig14(b *testing.B) {
	for _, name := range []string{"mandelbrot", "spmv-arrowhead", "spmv-powerlaw", "mandelbulb", "cg"} {
		w := prepareBench(b, name)
		for _, c := range []int64{1, 4, 16, 32} {
			b.Run(fmt.Sprintf("%s/chunk-%d", name, c), func(b *testing.B) {
				benchOMP(b, w, workloads.OMPConfig{Sched: omp.Dynamic, Chunk: c})
			})
		}
	}
}

// BenchmarkFig15 compares outermost-only against all-DOALL (nested team per
// inner region) OpenMP parallelization. The nested configuration is run at
// reduced scale — at full scale it does not finish, which is the result.
func BenchmarkFig15(b *testing.B) {
	for _, name := range []string{"spmv-arrowhead", "mandelbrot"} {
		b.Run(name+"/outermost-only", func(b *testing.B) {
			w := prepareBench(b, name)
			benchOMP(b, w, workloads.OMPConfig{Sched: omp.Dynamic, Chunk: 1})
		})
		b.Run(name+"/all-doall", func(b *testing.B) {
			w, err := workloads.New(name)
			if err != nil {
				b.Fatal(err)
			}
			w.Prepare(benchScale / 10)
			benchOMP(b, w, workloads.OMPConfig{Sched: omp.Dynamic, Chunk: 1, Nested: true})
		})
	}
}

// BenchmarkFig16 compares OpenMP static against HBC on the regular set.
func BenchmarkFig16(b *testing.B) {
	for _, name := range workloads.RegularSet() {
		w := prepareBench(b, name)
		b.Run(name+"/omp-static", func(b *testing.B) {
			benchOMP(b, w, workloads.OMPConfig{Sched: omp.Static})
		})
		b.Run(name+"/hbc", func(b *testing.B) {
			benchHBC(b, w, pulse.NewTimer(), core.Options{})
		})
	}
}

// BenchmarkParallelForOverhead measures the public API's fixed cost: an
// empty heartbeat-scheduled loop against a bare Go loop.
func BenchmarkParallelForOverhead(b *testing.B) {
	team := NewTeam(Workers(benchWorkers()), Heartbeat(100*time.Microsecond))
	defer team.Close()
	b.Run("hbc-for-1e6", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			team.For(0, 1_000_000, func(lo, hi int64) {
				for j := lo; j < hi; j++ {
					_ = j
				}
			})
		}
	})
	b.Run("bare-loop-1e6", func(b *testing.B) {
		var sink int64
		for i := 0; i < b.N; i++ {
			for j := int64(0); j < 1_000_000; j++ {
				sink += j
			}
		}
		_ = sink
	})
}
