// Command hbctrace runs a kernel under heartbeat scheduling with the
// unified telemetry layer enabled and exports what the runtime did: a
// Chrome trace_event JSON file (one lane per worker — load it in Perfetto
// or chrome://tracing), a text timeline on stdout, and optionally the
// metrics registry in Prometheus text form.
//
// Usage:
//
//	hbctrace kernels/spmv.hbk                        # trace.json + timeline
//	hbctrace -workers 4 -runs 10 -o spmv.json kernels/spmv.hbk
//	hbctrace -metrics kernels/spmv.hbk               # dump Prometheus text too
//	hbctrace -serve 127.0.0.1:9090 kernels/spmv.hbk  # keep serving /metrics
//
// With -min-promotions N the exit status reports whether the trace captured
// at least N promotion events, and with -validate the written trace file is
// read back and JSON-parsed, which together let CI use hbctrace as a
// self-validating smoke test of the whole telemetry path with no external
// tooling.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"hbc"
	"hbc/internal/frontend"
	"hbc/internal/telemetry"
)

func main() {
	var (
		workers   = flag.Int("workers", runtime.NumCPU(), "worker count")
		heartbeat = flag.Duration("heartbeat", 100*time.Microsecond, "heartbeat period")
		runs      = flag.Int("runs", 5, "repetitions (adaptive chunking keeps adapting across runs)")
		out       = flag.String("o", "trace.json", "Chrome trace output file (empty to skip)")
		bin       = flag.Duration("bin", time.Millisecond, "timeline bin width")
		ring      = flag.Int("ring", 0, "events per worker ring (0 = default)")
		metrics   = flag.Bool("metrics", false, "print the metrics registry in Prometheus text form")
		serve     = flag.String("serve", "", "keep serving /metrics and /vars on this address after the runs")
		minPromos = flag.Int("min-promotions", 0, "fail unless the trace holds at least this many promotion events")
		validate  = flag.Bool("validate", false, "re-read the written trace file and fail unless it parses as a non-empty Chrome trace")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: hbctrace [flags] <kernel.hbk>")
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
	c, err := frontend.Compile(k)
	if err != nil {
		fatal(err)
	}
	prog, err := hbc.Compile(c.Nest, hbc.Config{})
	if err != nil {
		fatal(err)
	}

	team := hbc.NewTeam(hbc.Workers(*workers), hbc.Heartbeat(*heartbeat), hbc.WithTelemetry(*ring))
	defer team.Close()
	r := team.Load(prog, c.Env)
	defer r.Close()

	t0 := time.Now()
	for i := 0; i < *runs; i++ {
		c.Env.Reset()
		r.Run()
	}
	elapsed := time.Since(t0)

	tel := team.Telemetry()
	snap := tel.Tracer.Snapshot()
	counts := snap.CountByKind()
	fmt.Printf("kernel %s: %d runs on %d workers in %v\n", k.Name, *runs, team.Size(), elapsed.Round(time.Microsecond))
	fmt.Printf("trace: %d events across %d lanes", snap.Total(), len(snap.Lanes))
	if snap.Truncated() {
		fmt.Printf(" (%d dropped to ring wrap; raise -ring)", snap.Dropped())
	}
	fmt.Println()
	for _, kind := range telemetry.Kinds() {
		if n := counts[kind]; n > 0 {
			fmt.Printf("  %-10s %d\n", kind, n)
		}
	}
	fmt.Println()
	fmt.Print(snap.Timeline(*bin))

	if *out != "" {
		raw, err := snap.ChromeTrace()
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, raw, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote %s (%d bytes) — open in Perfetto or chrome://tracing\n", *out, len(raw))
		if *validate {
			if err := validateTrace(*out); err != nil {
				fatal(fmt.Errorf("validating %s: %w", *out, err))
			}
			fmt.Printf("validated %s\n", *out)
		}
	} else if *validate {
		fatal(fmt.Errorf("-validate needs a trace file; -o is empty"))
	}
	if *metrics {
		fmt.Println()
		if err := tel.Registry.WritePrometheus(os.Stdout); err != nil {
			fatal(err)
		}
	}
	if counts[telemetry.KindPromotion] < *minPromos {
		fmt.Fprintf(os.Stderr, "hbctrace: trace holds %d promotion events, want >= %d\n",
			counts[telemetry.KindPromotion], *minPromos)
		os.Exit(1)
	}
	if *serve != "" {
		ms, err := tel.Registry.Serve(*serve)
		if err != nil {
			fatal(err)
		}
		defer ms.Close()
		fmt.Printf("\nserving http://%s/metrics and /vars — ctrl-C to stop\n", ms.Addr())
		select {}
	}
}

// validateTrace re-reads the exported file from disk and checks it is what a
// trace viewer expects: well-formed JSON whose traceEvents array holds at
// least one event. Catching a truncated or malformed export here keeps CI
// honest without shelling out to an external JSON tool.
func validateTrace(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc struct {
		Events []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return err
	}
	if len(doc.Events) == 0 {
		return fmt.Errorf("traceEvents is empty")
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hbctrace:", err)
	os.Exit(1)
}
