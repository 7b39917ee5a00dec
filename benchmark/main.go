// Command benchmark is the repo's one benchmark for the whole stack, from
// the loop-slice machinery to the router hop. It measures every layer from
// outside — by timing calls into public functions, by reading public
// counters around a window, and by driving the real hbcserve and hbcroute
// binaries over loopback HTTP — and it claims no gain. See README.md.
//
// Usage, from the repo root:
//
//	go run ./benchmark                        # five workloads, untraced + traced run each
//	go run ./benchmark -selfcheck             # the untraced suite twice, compared against the bounds
//	go run ./benchmark -quick                 # short windows, one workload per kind
//	go run ./benchmark -workload serve-open -seed 7 -seconds 15 -trace 0
//
// With one -workload and -trace 0 or 1 the last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"
)

// env is what every workload run of one process shares.
type env struct {
	root   string // repo root: the directory holding go.mod and kernels/
	out    string // where trace files go; empty: a directory of this process's own
	seed   int64
	window time.Duration // how long one run measures
	warmup time.Duration // discarded load before the window
	probe  time.Duration // budget of one serial-elision timing
	// scratch is this process's own directory under <root>/.bench_build,
	// holding the binaries and kernel copies of the serving workloads. It is
	// made by the first serving run and removed when run returns, so two
	// benchmarks running at once share no file.
	scratch string
}

// workDir returns <root>/.bench_build, the one place the benchmark writes.
func (e *env) workDir() (string, error) {
	dir := filepath.Join(e.root, ".bench_build")
	return dir, os.MkdirAll(dir, 0o755)
}

// tracePath returns where a workload's trace file goes: in -out, or in a
// directory made for this process, which is kept.
func (e *env) tracePath(workload string) (string, error) {
	if e.out == "" {
		work, err := e.workDir()
		if err != nil {
			return "", err
		}
		if e.out, err = os.MkdirTemp(work, "traces-"); err != nil {
			return "", err
		}
	}
	return filepath.Join(e.out, workload+".trace.json"), os.MkdirAll(e.out, 0o755)
}

// result is one run of one workload.
type result struct {
	workload  string
	traced    bool
	attempted int
	failed    int
	// problems are what makes the run incorrect: wrong results and unclean
	// process exits. A shed or expired request fails without being wrong.
	problems []string
	// failedBy counts failed invocations by HTTP status (0: no reply).
	failedBy map[int]int
	metrics  map[string]float64
	// tracers hold the traced run's spans; tracePath is where they went.
	tracers   []*tracer
	tracePath string
}

// count adds a window's invocations to the run's totals.
func (r *result) count(recs []rec) {
	wrong := 0
	for _, rc := range recs {
		r.attempted++
		if !rc.ok {
			r.failed++
			if r.failedBy == nil {
				r.failedBy = map[int]int{}
			}
			r.failedBy[rc.status]++
		}
		if rc.wrong {
			wrong++
		}
	}
	if wrong > 0 {
		r.problems = append(r.problems, fmt.Sprintf("%d invocation(s) returned a wrong result", wrong))
	}
}

// checked adds n output checks, of which bad failed.
func (r *result) checked(n int, bad []string) {
	r.attempted += n
	r.failed += len(bad)
	r.problems = append(r.problems, bad...)
}

// declared returns the metrics this kind of run reports.
func (r *result) declared() []metricDecl {
	if r.traced {
		return perLayer
	}
	return endToEnd
}

// finish fills fail_share and turns a metric that could not be computed
// into a problem rather than a number.
func (r *result) finish() {
	r.metrics[failShare.name] = share(float64(r.failed), float64(r.attempted))
	for _, d := range r.declared() {
		if v, ok := r.metrics[d.name]; ok && (math.IsNaN(v) || math.IsInf(v, 0)) {
			r.problems = append(r.problems, fmt.Sprintf("metric %s has no samples", d.name))
			r.metrics[d.name] = 0
		}
	}
}

// runWorkload runs one workload once, untraced or traced.
func runWorkload(e *env, w workload, traced bool) (*result, error) {
	var (
		res *result
		err error
	)
	if w.serving {
		res, err = runServe(e, w, traced)
	} else {
		res, err = runLib(e, w, traced)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	res.finish()
	return res, nil
}

// print writes every declared metric by name with its unit. A metric that
// does not apply to the workload reads n/a.
func (r *result) print(w io.Writer) {
	run := "end_to_end"
	decls := r.declared()
	if r.traced {
		run = "per_layer"
	} else {
		decls = append(append([]metricDecl{}, decls...), failShare)
	}
	for _, d := range decls {
		// fail_share is reported by both kinds of run and declared per-layer.
		kind := run
		if d == failShare {
			kind = "per_layer"
		}
		if v, ok := r.metrics[d.name]; ok {
			fmt.Fprintf(w, "%-16s %-10s %-34s %14.6g %s\n", r.workload, kind, d.name, v, d.unit)
		} else {
			fmt.Fprintf(w, "%-16s %-10s %-34s %14s %s\n", r.workload, kind, d.name, "n/a", d.unit)
		}
	}
	kind := run
	fmt.Fprintf(w, "%-16s %-10s attempted %d, failed %d", r.workload, kind, r.attempted, r.failed)
	if len(r.failedBy) > 0 {
		fmt.Fprintf(w, " (by HTTP status, 0 = no reply: %v)", r.failedBy)
	}
	fmt.Fprintln(w)
	if r.tracePath != "" {
		fmt.Fprintf(w, "%-16s %-10s trace written to %s\n", r.workload, kind, r.tracePath)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "%-16s PROBLEM %s\n", r.workload, p)
	}
}

// jsonLine is the driver contract's result object. Metrics that do not
// apply to the workload are 0.
func (r *result) jsonLine() ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	for _, d := range r.declared() {
		out.Metrics[d.name] = value{Value: r.metrics[d.name], Unit: d.unit}
	}
	return json.Marshal(out)
}

// findRoot walks up from the working directory to the module root, so the
// benchmark runs from the repo root (go run) and from its own directory
// (go test) alike.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "kernels")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod with a kernels/ directory above the working directory")
		}
		dir = parent
	}
}

// bounds reads each end-to-end metric's regression bound from
// BENCHMARK.json, the one place they are fixed.
func bounds(root string) (map[string]float64, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	out := map[string]float64{}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}

// selfcheck compares two untraced runs of every workload against the
// bounds and reports whether every pair agrees.
func selfcheck(w io.Writer, first, second []*result, bound map[string]float64) bool {
	ok := true
	fmt.Fprintf(w, "%-16s %-16s %14s %14s %9s %7s\n", "workload", "metric", "run 1", "run 2", "diff", "bound")
	for i, a := range first {
		b := second[i]
		for _, d := range append(append([]metricDecl{}, endToEnd...), failShare) {
			va, vb := a.metrics[d.name], b.metrics[d.name]
			diff, lim, unit := math.Abs(va-vb), failShareBound, ""
			if d != failShare {
				diff, lim, unit = 100*diff/math.Min(va, vb), 100*bound[d.name], "%"
			}
			verdict := ""
			if !(diff <= lim) {
				verdict, ok = "  DISAGREE", false
			}
			fmt.Fprintf(w, "%-16s %-16s %14.6g %14.6g %8.3g%s %6.3g%s%s\n", a.workload, d.name, va, vb, diff, unit, lim, unit, verdict)
		}
	}
	return ok
}

func main() {
	_, code := run(os.Args[1:], os.Stdout, os.Stderr)
	os.Exit(code)
}

// run is the command: it returns the exit code and, for the tests, the
// result of every run it made.
func run(args []string, stdout, stderr io.Writer) ([]*result, int) {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "run one workload (default: all five)")
		seed    = fs.Int64("seed", 1, "fixes kernel order, tenant assignment and arrival times")
		seconds = fs.Float64("seconds", 15, "how long each run measures")
		trace   = fs.Int("trace", -1, "0: untraced run (end-to-end metrics), 1: traced run (per-layer metrics), -1: both")
		outDir  = fs.String("out", "", "directory for trace files (default: a new directory under <root>/.bench_build)")
		check   = fs.Bool("selfcheck", false, "run the untraced suite twice and compare the pairs against BENCHMARK.json's bounds")
		quick   = fs.Bool("quick", false, "short windows and one workload per kind")
	)
	if err := fs.Parse(args); err != nil {
		return nil, 2
	}
	fail := func(err error) ([]*result, int) {
		fmt.Fprintln(stderr, "benchmark:", err)
		return nil, 1
	}
	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	// Warm-up and the serial probe are fixed, not flags: two runs of the same
	// code must not measure differently warmed stacks under one name.
	e := &env{root: root, out: *outDir, seed: *seed, window: time.Duration(*seconds * float64(time.Second)),
		warmup: 3 * time.Second, probe: 100 * time.Millisecond}
	defer func() { _ = os.RemoveAll(e.scratch) }() // a leftover is only an ignored directory
	selected := workloads
	if *quick {
		e.window, e.warmup, e.probe = 1500*time.Millisecond, 300*time.Millisecond, 30*time.Millisecond
		selected = nil
		for _, n := range quickWorkloads {
			w, _ := findWorkload(n)
			selected = append(selected, w)
		}
	}
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q", *name))
		}
		selected = []workload{w}
	}

	// suite runs every selected workload in the given mode.
	suite := func(traced bool) ([]*result, error) {
		var out []*result
		for _, w := range selected {
			fmt.Fprintf(stderr, "benchmark: %s (traced=%v, seed %d, %v)\n", w.name, traced, e.seed, e.window)
			r, err := runWorkload(e, w, traced)
			if err != nil {
				return nil, err
			}
			r.print(stdout)
			out = append(out, r)
		}
		return out, nil
	}
	correct := func(rs []*result) bool {
		for _, r := range rs {
			if len(r.problems) > 0 {
				return false
			}
		}
		return true
	}

	if *check {
		bound, err := bounds(root)
		if err != nil {
			return fail(err)
		}
		first, err := suite(false)
		if err != nil {
			return fail(err)
		}
		second, err := suite(false)
		if err != nil {
			return fail(err)
		}
		all := append(first, second...)
		if !selfcheck(stdout, first, second, bound) || !correct(all) {
			return all, 1
		}
		return all, 0
	}

	var all []*result
	for _, traced := range []bool{false, true} {
		if *trace >= 0 && traced != (*trace == 1) {
			continue
		}
		rs, err := suite(traced)
		if err != nil {
			return fail(err)
		}
		all = append(all, rs...)
	}
	if len(all) == 1 {
		line, err := all[0].jsonLine()
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s\n", line)
		return all, 0
	}
	if !correct(all) {
		return all, 1
	}
	return all, 0
}
