// Command hbcc is the end-to-end compiler driver and the repo's developer
// CLI. Plain `hbcc file.hbk` takes a kernel file in the front-end's loop
// language (see internal/frontend), compiles the annotated loop nest through
// the heartbeat middle-end, and runs it under serial elision and heartbeat
// scheduling — the full pipeline of the paper, from `parallel for` source to
// heartbeat execution. The subcommands cover the rest of the workflow:
//
//	hbcc vet   [flags] <kernel.hbk | dir>...  statically verify kernel files (vet.go)
//	hbcc lint  [flags] [dir|./...]...         lint Go packages for runtime invariants (lint.go)
//	hbcc trace [flags] <kernel.hbk>           run with telemetry, export a Chrome trace (trace.go)
//	hbcc tune  [flags]                        sweep scheduling parameters and policies (tune.go)
//	hbcc data  [flags]                        generate or inspect synthetic datasets (data.go)
//	hbcc fig   [flags]                        regenerate the paper's figures (fig.go)
//
// Usage of the plain driver:
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
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"hbc"
	"hbc/gen"
	_ "hbc/gen/kernels" // populate the registry with the checked-in kernels
	"hbc/internal/analysis"
	"hbc/internal/codegen"
	"hbc/internal/frontend"
	"hbc/internal/kernelfile"
	"hbc/internal/loopnest"
	"hbc/internal/stats"
)

// A command registers its flags on fs and returns the body to run on the
// positional arguments left after parsing.
type command struct {
	usage string
	flags func(fs *flag.FlagSet) func(args []string)
}

var commands = map[string]command{
	"vet":   {"[-q] [-werror] [-json] [-facts] <kernel.hbk | dir>...", vetCmd},
	"lint":  {"[-list] [dir|./...]...", lintCmd},
	"trace": {"[flags] <kernel.hbk>", traceCmd},
	"tune":  {"[flags]", tuneCmd},
	"data":  {"[flags]", dataCmd},
	"fig":   {"[flags]", figCmd},
}

var runCommand = command{"[flags] <kernel.hbk>\n       hbcc vet|lint|trace|tune|data|fig [flags] ...", runCmd}

// cmdName is the running command, "hbcc" or "hbcc <subcommand>"; it
// prefixes usage and error messages.
var cmdName = "hbcc"

func main() {
	c, args := runCommand, os.Args[1:]
	if len(args) > 0 {
		if sub, ok := commands[args[0]]; ok {
			c, cmdName, args = sub, "hbcc "+args[0], args[1:]
		}
	}
	fs := flag.NewFlagSet(cmdName, flag.ExitOnError)
	run := c.flags(fs)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: %s %s\n", cmdName, c.usage)
		fs.PrintDefaults()
	}
	fs.Parse(args)
	run(fs.Args())
}

// usageExit prints the command's usage and exits with status 2.
func usageExit(fs *flag.FlagSet) {
	fs.Usage()
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", cmdName, err)
	os.Exit(1)
}

// median calls fn runs times, each after an untimed reset (if non-nil), and
// returns the median duration.
func median(runs int, reset, fn func()) time.Duration {
	ds := make([]time.Duration, runs)
	for i := range ds {
		if reset != nil {
			reset()
		}
		t0 := time.Now()
		fn()
		ds[i] = time.Since(t0)
	}
	return stats.Median(ds)
}

func runCmd(fs *flag.FlagSet) func([]string) {
	var (
		workers   = fs.Int("workers", runtime.NumCPU(), "worker count")
		heartbeat = fs.Duration("heartbeat", 100*time.Microsecond, "heartbeat period")
		runs      = fs.Int("runs", 3, "timed repetitions (median)")
		emit      = fs.Bool("emit", false, "print the compiled loop nest and exit")
		format    = fs.Bool("fmt", false, "print the canonically formatted kernel and exit")
		trace     = fs.Bool("trace", false, "print the runtime event timeline (beats, promotions, retunes) after the run")
		vet       = fs.Bool("vet", true, "statically verify DOALL safety before running")
		checked   = fs.Bool("checked", false, "compile with runtime bounds guards, skipping accesses the analyzer proves safe")
		emitGo    = fs.Bool("emit-go", false, "emit a specialized Go package for the kernel and exit")
		outPath   = fs.String("o", "", "with -emit-go: output .go file, or directory to create <name>gen/ under (default stdout)")
		useGen    = fs.Bool("gen", false, "run the kernel through its registered generated package instead of the interpreter")
	)
	return func(args []string) {
		if len(args) != 1 {
			usageExit(fs)
		}
		src, err := kernelfile.Read(args[0])
		if err != nil {
			fatal(err)
		}
		if *format {
			fmt.Print(frontend.Format(src.Kernel))
			return
		}
		if *vet {
			diags := analysis.Vet(src.Path, src.Kernel)
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
			emitGoPackage(src, *outPath)
			return
		}
		k, err := src.Load(kernelfile.Options{Generated: *useGen, Checked: *checked})
		if err != nil {
			fatal(err)
		}
		if *useGen && !k.Generated {
			fatal(fmt.Errorf("%w (registered: %v)", k.Fallback, gen.Kernels()))
		}
		runKernel(k, *workers, *heartbeat, *runs, *checked, *emit, *trace)
	}
}

// runKernel compiles a loaded kernel, times it under serial elision (the
// generated package's specialized driver on that backend) and under
// heartbeat scheduling, and verifies the two agree on every output array.
func runKernel(k *kernelfile.Kernel, workers int, heartbeat time.Duration, runs int, checked, emit, trace bool) {
	backend, title := "", k.Kernel.Name
	if k.Generated {
		backend, title = "generated backend, ", title+" (generated)"
	}
	fmt.Printf("kernel %s: %s%d loops, depth %d\n", k.Kernel.Name, backend, k.Nest.CountLoops(), k.Nest.Depth())
	if checked && !k.Generated {
		fmt.Printf("bounds: %d subscript(s) statically proven, %d guarded at runtime\n",
			k.ProvenAccesses, k.CheckedAccesses)
	}
	if hint := k.Facts.LeafChunkHint(); hint > 1 {
		fmt.Printf("cost model: initial chunk %d (from static iteration cost)\n", hint)
	}
	if emit {
		emitNest(k.Nest.Root, 0)
		return
	}
	prog, err := hbc.Compile(k.Nest, hbc.Config{Facts: k.Facts})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("compiled: %d leftover tasks in the table\n", prog.Leftovers())

	serialRun := func() { k.RunSerial(prog) }
	serialRun() // warmup
	serial := median(runs, k.Env.Reset, serialRun)
	serialSums := checksums(k.Env, outputNames(k.Kernel))

	opts := []hbc.Option{hbc.Workers(workers), hbc.Heartbeat(heartbeat)}
	if trace {
		opts = append(opts, hbc.WithTelemetry(0))
	}
	team := hbc.NewTeam(opts...)
	defer team.Close()
	r := team.Load(prog, k.Env)
	defer r.Close()
	hbRun := func() { r.Run() }
	hbRun() // warmup
	hb := median(runs, k.Env.Reset, hbRun)
	hbSums := checksums(k.Env, outputNames(k.Kernel))

	tb := stats.NewTable(fmt.Sprintf("%s on %d workers (median of %d)", title, workers, runs),
		"engine", "time", "speedup")
	tb.Row("serial", serial, 1.0)
	tb.Row("heartbeat", hb, stats.Speedup(serial, hb))
	fmt.Println(tb.String())
	fmt.Printf("promotions: %d by level %v\n", r.Stats().Promotions(), r.Stats().ByLevel())

	for name, s := range hbSums {
		if d := s - serialSums[name]; d > 1e-6 || d < -1e-6 {
			fmt.Fprintf(os.Stderr, "hbcc: checksum mismatch on %s: serial %g vs heartbeat %g\n",
				name, serialSums[name], s)
			os.Exit(1)
		}
		fmt.Printf("checksum %s = %g (matches serial)\n", name, s)
	}
	if tel := team.Telemetry(); tel != nil {
		fmt.Print(tel.Tracer.Snapshot().Timeline(time.Millisecond))
	}
}

// emitGoPackage runs the specialized backend and writes the generated
// package: to stdout with no -o, to the named file for a path ending in
// .go, or into <dir>/<name>gen/<name>_gen.go otherwise.
func emitGoPackage(src *kernelfile.Source, outPath string) {
	a, err := codegen.Emit(src.Path, src.Bytes)
	if err != nil {
		fatal(err)
	}
	dst := outPath
	switch {
	case outPath == "":
		os.Stdout.Write(a.Code)
		return
	case !strings.HasSuffix(outPath, ".go"):
		dir := filepath.Join(outPath, a.PackageName)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fatal(err)
		}
		dst = filepath.Join(dir, a.FileName)
	}
	if err := os.WriteFile(dst, a.Code, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "hbcc: wrote %s\n", dst)
}

// checksums sums each declared output array for a cheap equality check.
func checksums(env gen.Env, names []string) map[string]float64 {
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
	kind := "interior"
	if l.Leaf() {
		kind = "leaf"
	}
	red := ""
	if l.Reduce != nil {
		red = " reduce"
	}
	fmt.Printf("%sparallel for %s (%s%s)\n", strings.Repeat("  ", depth), l.Name, kind, red)
	for _, c := range l.Children {
		emitNest(c, depth+1)
	}
}
