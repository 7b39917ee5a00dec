package main

// `hbcc tune` explores Adaptive Chunking's parameter space for one
// benchmark: it sweeps the target polling count and window size — the
// exploration behind the paper's choice of target 4 / window 8 (Fig. 13 and
// §6.6).
//
// Usage:
//
//	hbcc tune -bench spmv-powerlaw -scale 0.2
//	hbcc tune -bench mandelbrot -targets 1,2,4,8,16 -windows 2,8,32
//	hbcc tune -kernel kernels/powersum.hbk -explain
//
// With -kernel, tune sweeps a .hbk kernel file instead of a named Go
// workload; -explain additionally prints the fact engine's static cost
// model (per-loop trip counts, iteration costs, variance class, and the
// initial-chunk hint that seeds Adaptive Chunking) next to the measured
// results, so the analyzer's prediction can be compared with what the
// runtime converged on.

import (
	"flag"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"hbc"
	"hbc/internal/analysis"
	"hbc/internal/core"
	"hbc/internal/kernelfile"
	"hbc/internal/pulse"
	"hbc/internal/sched"
	"hbc/internal/stats"
	"hbc/internal/workloads"
)

// point is one Adaptive Chunking configuration of a sweep, measured over
// runs.
type point struct {
	target, window int64
	runs           int
}

// measurement is what one point measured: median time, heartbeat detection
// rate and settled chunk spread.
type measurement struct {
	median    time.Duration
	detection float64
	chunks    string
}

func tuneCmd(fs *flag.FlagSet) func([]string) {
	var (
		bench     = fs.String("bench", "spmv-powerlaw", "benchmark to tune")
		kernel    = fs.String("kernel", "", "tune a .hbk kernel file instead of -bench")
		explain   = fs.Bool("explain", false, "with -kernel: print the static cost model next to measured results")
		scale     = fs.Float64("scale", 0.5, "input scale")
		workers   = fs.Int("workers", runtime.NumCPU(), "worker count")
		runs      = fs.Int("runs", 3, "repetitions (median)")
		heartbeat = fs.Duration("heartbeat", 100*time.Microsecond, "heartbeat period")
		targets   = fs.String("targets", "1,2,4,8,16", "target polling counts to sweep")
		windows   = fs.String("windows", "8", "window sizes to sweep")
		verify    = fs.Bool("verify", false, "verify against the serial oracle")
	)
	return func([]string) {
		var what string
		var measure func(point) measurement
		if *kernel != "" {
			k, err := kernelfile.Load(*kernel, kernelfile.Options{})
			if err != nil {
				fatal(err)
			}
			if *explain {
				printCostModel(k.Facts)
			}
			what = fmt.Sprintf("%s (kernel %s, %d workers)", k.Facts.Kernel, *kernel, *workers)
			measure = func(p point) measurement { return measureKernel(k, p, *workers, *heartbeat) }
		} else {
			if *explain {
				fatal(fmt.Errorf("-explain requires -kernel (the static cost model comes from the .hbk fact engine)"))
			}
			w, err := workloads.New(*bench)
			if err != nil {
				fatal(err)
			}
			w.Prepare(*scale)
			what = fmt.Sprintf("%s (scale %.2f, %d workers)", *bench, *scale, *workers)
			measure = func(p point) measurement { return measureBench(w, p, *workers, *heartbeat, *verify) }
		}
		tb := stats.NewTable("Adaptive Chunking sweep: "+what,
			"target", "window", "median", "detection%", "chunk min/med/max")
		for _, win := range parseInts(*windows) {
			for _, tgt := range parseInts(*targets) {
				m := measure(point{target: tgt, window: win, runs: *runs})
				tb.Row(tgt, win, m.median, m.detection, m.chunks)
			}
		}
		fmt.Println(tb.String())
	}
}

// measureKernel compiles the kernel at one sweep point and times it on a
// fresh team. The fact engine's chunk hint seeds every configuration (the
// same wiring hbc.Compile uses everywhere), so the sweep measures adaptation
// from the analyzer's starting point, not from the paper's cold chunk of 1.
func measureKernel(k *kernelfile.Kernel, p point, workers int, heartbeat time.Duration) measurement {
	cfg := hbc.Config{Facts: k.Facts, TargetPolls: p.target, WindowSize: int(p.window)}
	prog, err := hbc.Compile(k.Nest, cfg)
	if err != nil {
		fatal(err)
	}
	team := hbc.NewTeam(hbc.Workers(workers), hbc.Heartbeat(heartbeat))
	defer team.Close()
	r := team.Load(prog, k.Env)
	defer r.Close()
	med := median(p.runs, k.Env.Reset, func() { r.Run() })
	return measurement{med, r.PulseStats().DetectionRate(), summarizeChunks([]*hbc.Runner{r}, workers)}
}

// measureBench runs a named Go workload at one sweep point on a fresh team.
func measureBench(w workloads.Workload, p point, workers int, heartbeat time.Duration, verify bool) measurement {
	opts := core.Options{TargetPolls: p.target, WindowSize: int(p.window)}
	src := pulse.NewTimer()
	team := sched.NewTeam(workers)
	defer team.Close()
	drv := workloads.NewDriver(team, src, heartbeat, opts)
	defer drv.Close()
	if err := w.BindHBC(drv); err != nil {
		fatal(err)
	}
	med := median(p.runs, nil, func() { w.RunHBC(drv) })
	if verify {
		if err := w.Verify(); err != nil {
			fatal(err)
		}
	}
	return measurement{med, src.Stats().DetectionRate(), summarizeChunks(drv.Execs(), workers)}
}

// summarizeChunks reports the spread of settled chunk sizes as
// "min/median/max": per worker it gathers that worker's chunks across
// every run and leaf, takes the worker's median, then reports the global
// minimum, the median of the per-worker medians, and the global maximum,
// so neither cross-worker divergence nor any nest but the first hides.
func summarizeChunks[X interface{ Chunks(w int) []int64 }](xs []X, workers int) string {
	var lo, hi int64
	var medians []int64
	first := true
	for w := 0; w < workers; w++ {
		var mine []int64
		for _, x := range xs {
			mine = append(mine, x.Chunks(w)...)
		}
		if len(mine) == 0 {
			continue
		}
		sort.Slice(mine, func(i, j int) bool { return mine[i] < mine[j] })
		if first || mine[0] < lo {
			lo = mine[0]
		}
		if first || mine[len(mine)-1] > hi {
			hi = mine[len(mine)-1]
		}
		first = false
		medians = append(medians, mine[len(mine)/2])
	}
	if len(medians) == 0 {
		return "-"
	}
	sort.Slice(medians, func(i, j int) bool { return medians[i] < medians[j] })
	return fmt.Sprintf("%d/%d/%d", lo, medians[len(medians)/2], hi)
}

// printCostModel renders the fact engine's per-loop estimates — the static
// half of the comparison the measured table provides the dynamic half of.
func printCostModel(f *analysis.Facts) {
	fmt.Printf("static cost model: kernel %s (%s)\n", f.Kernel, describePurity(f))
	for _, l := range f.Loops {
		indent := strings.Repeat("  ", l.Depth+1)
		kind := "serial"
		if l.Parallel {
			kind = "parallel"
		}
		fmt.Printf("%s%s loop %s (line %d): trip %s, iter cost %s, variance %s",
			indent, kind, l.Var, l.Line, l.Trip.Expr, l.IterCost.Expr, l.Variance)
		if l.ChunkHint > 0 {
			fmt.Printf(", chunk hint %d", l.ChunkHint)
		}
		fmt.Println()
	}
	if hint := f.LeafChunkHint(); hint > 0 {
		fmt.Printf("  suggested initial chunk: %d (seeds the sweep below)\n", hint)
	} else {
		fmt.Println("  no chunk hint (leaf cost unknown or control-variant); AC starts at 1")
	}
	fmt.Println()
}

func describePurity(f *analysis.Facts) string {
	if f.Pure {
		return "pure"
	}
	return fmt.Sprintf("impure: writes %s", strings.Join(f.Effects.Writes, ", "))
}

func parseInts(csv string) []int64 {
	var out []int64
	for _, f := range strings.Split(csv, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			fatal(fmt.Errorf("bad integer list %q: %w", csv, err))
		}
		out = append(out, v)
	}
	return out
}
