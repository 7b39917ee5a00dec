// Command hbcc is the end-to-end compiler driver: it takes a kernel file in
// the front-end's loop language (see internal/frontend), compiles the
// annotated loop nest through the heartbeat middle-end, and runs it under
// serial elision and heartbeat scheduling — the full pipeline of the paper,
// from `parallel for` source to heartbeat execution.
//
// Usage:
//
//	hbcc kernels/spmv.hbk
//	hbcc -workers 8 -heartbeat 100us -runs 3 kernels/escape.hbk
//	hbcc -emit kernels/spmv.hbk     # print the compiled nest and exit
//	hbcc -checked kernels/spmv.hbk  # guard subscripts the analyzer can't prove
//	hbcc -emit-go kernels/spmv.hbk  # emit the specialized Go package (internal/codegen)
//	hbcc -gen kernels/spmv.hbk      # run the checked-in generated backend instead
//
// -emit-go prints the generated package to stdout; -o writes it to a file
// (path ending in .go) or into <dir>/<name>gen/<name>_gen.go. -gen runs a
// kernel through its registered generated package (gen/kernels), verifying
// the artifact's source SHA first so a stale artifact never silently
// shadows the interpreter.
//
// Before compiling, hbcc statically verifies the kernel's `parallel for`
// annotations (internal/analysis): proven races reject the kernel,
// undecidable subscripts print as warnings. -vet=false skips the check.
//
// The fact engine (analysis.BuildFacts) always runs: its per-loop cost
// estimate seeds Adaptive Chunking's starting chunk, and with -checked its
// bounds proofs exempt proven-safe subscripts from the runtime range guards
// — hbcc reports how many accesses each path took.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"hbc/internal/analysis"
	"hbc/internal/core"
	"hbc/internal/frontend"
	"hbc/internal/loopnest"
	"hbc/internal/pulse"
	"hbc/internal/sched"
	"hbc/internal/stats"
	"hbc/internal/telemetry"
)

func main() {
	var (
		workers   = flag.Int("workers", runtime.NumCPU(), "worker count")
		heartbeat = flag.Duration("heartbeat", 100*time.Microsecond, "heartbeat period")
		runs      = flag.Int("runs", 3, "timed repetitions (median)")
		emit      = flag.Bool("emit", false, "print the compiled loop nest and exit")
		format    = flag.Bool("fmt", false, "print the canonically formatted kernel and exit")
		trace     = flag.Bool("trace", false, "print the runtime event timeline (beats, promotions, retunes) after the run")
		vet       = flag.Bool("vet", true, "statically verify DOALL safety before running")
		checked   = flag.Bool("checked", false, "compile with runtime bounds guards, skipping accesses the analyzer proves safe")
		emitGo    = flag.Bool("emit-go", false, "emit a specialized Go package for the kernel and exit")
		outPath   = flag.String("o", "", "with -emit-go: output .go file, or directory to create <name>gen/ under (default stdout)")
		useGen    = flag.Bool("gen", false, "run the kernel through its registered generated package instead of the interpreter")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: hbcc [flags] <kernel.hbk>")
		os.Exit(2)
	}
	file := flag.Arg(0)
	src, err := os.ReadFile(file)
	if err != nil {
		fatal(err)
	}
	k, err := frontend.ParseFile(file, string(src))
	if err != nil {
		fatal(err)
	}
	if *format {
		fmt.Print(frontend.Format(k))
		return
	}
	if *vet {
		diags := analysis.Vet(file, k)
		for _, d := range diags {
			fmt.Fprintln(os.Stderr, d)
		}
		if analysis.HasErrors(diags) {
			fmt.Fprintln(os.Stderr, "hbcc: kernel rejected: `parallel for` is not provably DOALL (-vet=false overrides)")
			os.Exit(1)
		}
	}
	if *emitGo {
		if *checked {
			fmt.Fprintln(os.Stderr, "hbcc: -emit-go and -checked are incompatible: generated code elides exactly the guards -checked inserts")
			os.Exit(2)
		}
		emitGoPackage(file, src, *outPath)
		return
	}
	facts := analysis.BuildFacts(file, k)
	if *useGen {
		runGenerated(k, src, facts, *workers, *heartbeat, *runs, *trace)
		return
	}
	var fopts frontend.Options
	if *checked {
		fopts = frontend.Options{CheckBounds: true, Oracle: facts}
	}
	c, err := frontend.CompileWith(k, fopts)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("kernel %s: %d loops, depth %d\n", k.Name, c.Nest.CountLoops(), c.Nest.Depth())
	if *checked {
		fmt.Printf("bounds: %d subscript(s) statically proven, %d guarded at runtime\n",
			c.ProvenAccesses, c.CheckedAccesses)
	}
	if hint := facts.LeafChunkHint(); hint > 1 {
		fmt.Printf("cost model: initial chunk %d (from static iteration cost)\n", hint)
	}
	if *emit {
		emitNest(c.Nest.Root, 0)
		return
	}

	prog, err := core.Compile(c.Nest, core.Options{InitialChunk: facts.LeafChunkHint()})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("compiled: %d leftover tasks in the table\n", prog.LeftoverCount())

	median := func(fn func()) time.Duration {
		fn() // warmup
		ds := make([]time.Duration, *runs)
		for i := range ds {
			c.Env.Reset()
			t0 := time.Now()
			fn()
			ds[i] = time.Since(t0)
		}
		return stats.Median(ds)
	}

	serial := median(func() { prog.RunSeq(c.Env) })
	serialSums := checksums(c.Env, outputNames(c.Kernel))

	team := sched.NewTeam(*workers)
	defer team.Close()
	x := core.NewExec(prog, team, pulse.NewTimer(), *heartbeat, c.Env)
	tr := newTracer(*trace, team)
	x.SetTracer(tr)
	x.Start()
	defer x.Stop()
	hb := median(func() { x.Run() })
	hbSums := checksums(c.Env, outputNames(c.Kernel))

	tb := stats.NewTable(fmt.Sprintf("%s on %d workers (median of %d)", k.Name, *workers, *runs),
		"engine", "time", "speedup")
	tb.Row("serial", serial, 1.0)
	tb.Row("heartbeat", hb, stats.Speedup(serial, hb))
	fmt.Println(tb.String())
	fmt.Printf("promotions: %d by level %v\n", x.Stats().Promotions(), x.Stats().ByLevel())

	for name, s := range hbSums {
		if d := s - serialSums[name]; d > 1e-6 || d < -1e-6 {
			fmt.Fprintf(os.Stderr, "hbcc: checksum mismatch on %s: serial %g vs heartbeat %g\n",
				name, serialSums[name], s)
			os.Exit(1)
		}
		fmt.Printf("checksum %s = %g (matches serial)\n", name, s)
	}
	printTimeline(tr)
}

// newTracer returns a tracer with one lane per worker when -trace is set,
// and nil (tracing off) otherwise.
func newTracer(on bool, team *sched.Team) *telemetry.Tracer {
	if !on {
		return nil
	}
	return telemetry.NewTracer(team.Size(), 0)
}

// printTimeline prints the tracer's per-millisecond event timeline; a nil
// tracer prints nothing.
func printTimeline(tr *telemetry.Tracer) {
	if tr != nil {
		fmt.Print(tr.Snapshot().Timeline(time.Millisecond))
	}
}

// arrayEnv is the accessor surface shared by the interpreter's
// frontend.Env and generated packages' Env types, letting checksums treat
// both backends uniformly.
type arrayEnv interface {
	FloatArray(name string) ([]float64, bool)
	IntArray(name string) ([]int64, bool)
}

// checksums sums each declared output array for a cheap equality check.
func checksums(env arrayEnv, names []string) map[string]float64 {
	out := map[string]float64{}
	for _, name := range names {
		var s float64
		if a, ok := env.FloatArray(name); ok {
			for _, v := range a {
				s += v
			}
		} else if a, ok := env.IntArray(name); ok {
			for _, v := range a {
				s += float64(v)
			}
		}
		out[name] = s
	}
	return out
}

func outputNames(k *frontend.Kernel) []string {
	var names []string
	for _, d := range k.Decls {
		if a, ok := d.(*frontend.ArrayDecl); ok {
			names = append(names, a.Name)
		}
	}
	return names
}

// emitNest prints the compiled loop structure.
func emitNest(l *loopnest.Loop, depth int) {
	pad := ""
	for i := 0; i < depth; i++ {
		pad += "  "
	}
	kind := "interior"
	if l.Leaf() {
		kind = "leaf"
	}
	red := ""
	if l.Reduce != nil {
		red = " reduce"
	}
	fmt.Printf("%sparallel for %s (%s%s)\n", pad, l.Name, kind, red)
	for _, c := range l.Children {
		emitNest(c, depth+1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hbcc:", err)
	os.Exit(1)
}
