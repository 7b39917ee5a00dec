package main

// The codegen-backend side of the driver: -emit-go emission and the -gen
// run path over the checked-in generated kernel registry.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"hbc/gen"
	_ "hbc/gen/kernels" // populate the registry with the checked-in kernels
	"hbc/internal/analysis"
	"hbc/internal/codegen"
	"hbc/internal/core"
	"hbc/internal/frontend"
	"hbc/internal/pulse"
	"hbc/internal/sched"
	"hbc/internal/stats"
)

// emitGoPackage runs the specialized backend and writes the generated
// package: to stdout with no -o, to the named file for a path ending in
// .go, or into <dir>/<name>gen/<name>_gen.go otherwise.
func emitGoPackage(file string, src []byte, outPath string) {
	a, err := codegen.Emit(file, src)
	if err != nil {
		fatal(err)
	}
	switch {
	case outPath == "":
		os.Stdout.Write(a.Code)
	case strings.HasSuffix(outPath, ".go"):
		if err := os.WriteFile(outPath, a.Code, 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "hbcc: wrote %s\n", outPath)
	default:
		dir := filepath.Join(outPath, a.PackageName)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fatal(err)
		}
		dst := filepath.Join(dir, a.FileName)
		if err := os.WriteFile(dst, a.Code, 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "hbcc: wrote %s\n", dst)
	}
}

// runGenerated executes the kernel through its registered generated
// package — serial via the specialized RunSerial driver, parallel via the
// monomorphic slice tasks under the heartbeat engine — with the same
// reporting and serial-vs-heartbeat checksum verification as the
// interpreted path.
func runGenerated(k *frontend.Kernel, src []byte, facts *analysis.Facts, workers int, heartbeat time.Duration, runs int, trace bool) {
	gk, ok := gen.Lookup(k.Name)
	if !ok {
		fatal(fmt.Errorf("no generated kernel %q registered; emit with -emit-go and check it in under gen/kernels (registered: %v)",
			k.Name, gen.Kernels()))
	}
	sum := sha256.Sum256(src)
	if sha := hex.EncodeToString(sum[:]); sha != gk.SourceSHA {
		fatal(fmt.Errorf("generated kernel %q is stale: source is %s but the artifact was built from %s; re-run -emit-go",
			k.Name, sha, gk.SourceSHA))
	}
	env := gk.NewEnv()
	nest := gk.Nest(env)
	fmt.Printf("kernel %s: generated backend, %d loops, depth %d\n", k.Name, nest.CountLoops(), nest.Depth())
	if hint := facts.LeafChunkHint(); hint > 1 {
		fmt.Printf("cost model: initial chunk %d (from static iteration cost)\n", hint)
	}
	prog, err := core.Compile(nest, core.Options{InitialChunk: facts.LeafChunkHint()})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("compiled: %d leftover tasks in the table\n", prog.LeftoverCount())

	median := func(fn func()) time.Duration {
		fn() // warmup
		ds := make([]time.Duration, runs)
		for i := range ds {
			env.Reset()
			t0 := time.Now()
			fn()
			ds[i] = time.Since(t0)
		}
		return stats.Median(ds)
	}

	serial := median(func() { gk.RunSerial(env) })
	serialSums := checksums(env, outputNames(k))

	team := sched.NewTeam(workers)
	defer team.Close()
	x := core.NewExec(prog, team, pulse.NewTimer(), heartbeat, env)
	tr := newTracer(trace, team)
	x.SetTracer(tr)
	x.Start()
	defer x.Stop()
	hb := median(func() { x.Run() })
	hbSums := checksums(env, outputNames(k))

	tb := stats.NewTable(fmt.Sprintf("%s (generated) on %d workers (median of %d)", k.Name, workers, runs),
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
