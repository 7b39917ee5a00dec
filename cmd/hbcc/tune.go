package main

// `hbcc tune` explores the scheduling parameter space for one benchmark: it
// sweeps the Adaptive Chunking target polling count and window size — the
// exploration behind the paper's choice of target 4 / window 8 (Fig. 13 and
// §6.6) — or, with -policies, sweeps the whole schedule catalog (adaptive,
// static, guided, factoring, trapezoid, weighted, auto) and reports the
// winner. -save persists winners to a tunefile that hbcserve -policy-file
// loads at startup.
//
// Usage:
//
//	hbcc tune -bench spmv-powerlaw -scale 0.2
//	hbcc tune -bench mandelbrot -targets 1,2,4,8,16 -windows 2,8,32
//	hbcc tune -kernel kernels/powersum.hbk -explain
//	hbcc tune -bench spmv-powerlaw -policies
//	hbcc tune -kernel kernels/spmv.hbk -policies -save tuned.json
//
// With -kernel, tune sweeps a .hbk kernel file instead of a named Go
// workload; -explain additionally prints the fact engine's static cost
// model (per-loop trip counts, iteration costs, variance class, and the
// initial-chunk hint that seeds Adaptive Chunking) next to the measured
// results, so the analyzer's prediction can be compared with what the
// runtime converged on. -policies -save keys the tunefile by kernel name
// (what hbcserve registers kernels under), so the serve layer picks the
// winner up directly.

import (
	"flag"
	"fmt"
	"os"
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
	"hbc/internal/tunefile"
	"hbc/internal/workloads"
)

// point is one configuration of a sweep: Adaptive Chunking knobs (policy
// empty), or a schedule policy at its defaults, measured over runs.
type point struct {
	target, window int64
	policy         string
	runs           int
}

// measurement is what one point measured: median time, heartbeat detection
// rate, settled chunk spread, and the auto selector's end state.
type measurement struct {
	median    time.Duration
	detection float64
	chunks    string
	note      string
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
		policies  = fs.Bool("policies", false, "sweep the schedule catalog instead of AC parameters")
		save      = fs.String("save", "", "with -policies: record the winning policy in this tunefile")
	)
	return func([]string) {
		if *save != "" && !*policies {
			fatal(fmt.Errorf("-save requires -policies (only the policy sweep picks a winner to persist)"))
		}
		var key, what string
		var measure func(point) measurement
		if *kernel != "" {
			k, err := kernelfile.Load(*kernel, kernelfile.Options{})
			if err != nil {
				fatal(err)
			}
			if *explain {
				printCostModel(k.Facts)
			}
			key = k.Facts.Kernel
			what = fmt.Sprintf("%s (kernel %s, %d workers)", key, *kernel, *workers)
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
			key = *bench
			what = fmt.Sprintf("%s (scale %.2f, %d workers)", key, *scale, *workers)
			measure = func(p point) measurement { return measureBench(w, p, *workers, *heartbeat, *verify) }
		}
		if *policies {
			sweepPolicies(what, key, *runs, *workers, *save, measure)
			return
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
	if p.policy != "" {
		cfg.Sched, cfg.SchedProfileRuns = p.policy, 1
	}
	prog, err := hbc.Compile(k.Nest, cfg)
	if err != nil {
		fatal(err)
	}
	team := hbc.NewTeam(hbc.Workers(workers), hbc.Heartbeat(heartbeat))
	defer team.Close()
	r := team.Load(prog, k.Env)
	defer r.Close()
	med := median(p.runs, k.Env.Reset, func() { r.Run() })
	rs := []*hbc.Runner{r}
	return measurement{med, r.PulseStats().DetectionRate(), summarizeChunks(rs, workers), selectorNote(rs)}
}

// measureBench runs a named Go workload at one sweep point on a fresh team.
func measureBench(w workloads.Workload, p point, workers int, heartbeat time.Duration, verify bool) measurement {
	opts := core.Options{TargetPolls: p.target, WindowSize: int(p.window)}
	if p.policy != "" {
		kind, err := core.ParseChunkKind(p.policy)
		if err != nil {
			fatal(err)
		}
		opts.Chunk = core.ChunkPolicy{Kind: kind, ProfileRuns: 1}
	}
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
	return measurement{med, src.Stats().DetectionRate(), summarizeChunks(drv.Execs(), workers), selectorNote(drv.Execs())}
}

// sweepPolicies measures every schedule in the catalog except "none" (the
// unchunked baseline rather than a schedule worth persisting), reports
// medians, and saves the fastest under key when save is set.
func sweepPolicies(what, key string, runs, workers int, save string, measure func(point) measurement) {
	tb := stats.NewTable("Schedule sweep: "+what,
		"policy", "runs", "median", "detection%", "chunk min/med/max", "note")
	var bestName string
	var bestMed time.Duration
	for _, name := range core.ScheduleNames() {
		if name == "none" {
			continue
		}
		r := policyRuns(name, runs)
		m := measure(point{policy: name, runs: r})
		tb.Row(name, r, m.median, m.detection, m.chunks, m.note)
		if bestName == "" || m.median < bestMed {
			bestName, bestMed = name, m.median
		}
	}
	fmt.Println(tb.String())
	fmt.Printf("hbcc tune: winner %s (median %v)\n", bestName, bestMed)
	saveChoice(save, key, tunefile.Choice{
		Policy:   bestName,
		MedianNs: bestMed.Nanoseconds(),
		Workers:  workers,
	})
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

// policyRuns widens the repetition count for the auto selector so the
// sweep actually reaches a locked decision: one profiling run per
// candidate (ProfileRuns is forced to 1), plus a few post-lock runs that
// measure the winner.
func policyRuns(policy string, runs int) int {
	if policy != "auto" {
		return runs
	}
	// The default candidate set is every schedule except "none" and "auto"
	// itself; with ProfileRuns forced to 1, one run profiles one candidate,
	// and three more measure the locked winner.
	if min := len(core.ScheduleNames()) - 2 + 3; runs < min {
		return min
	}
	return runs
}

// selectorNote reports the auto selector's end state ("locked→guided" or
// how far profiling got); empty for fixed policies.
func selectorNote[X interface {
	SelectorState() (core.SelectorState, bool)
}](xs []X) string {
	for _, x := range xs {
		st, ok := x.SelectorState()
		if !ok {
			continue
		}
		if st.Locked {
			return "locked→" + st.Winner
		}
		return fmt.Sprintf("profiling %s (%d done)", st.Active, st.Profiled)
	}
	return ""
}

// saveChoice merges one winner into the tunefile at path (creating it if
// absent), so successive sweeps over different kernels accumulate.
func saveChoice(path, key string, c tunefile.Choice) {
	if path == "" {
		return
	}
	f, err := tunefile.Load(path)
	if err != nil {
		if !os.IsNotExist(err) {
			fatal(err)
		}
		f = tunefile.New()
	}
	f.Set(key, c)
	if err := f.Save(path); err != nil {
		fatal(err)
	}
	fmt.Printf("hbcc tune: saved %s policy %q to %s\n", key, c.Policy, path)
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
