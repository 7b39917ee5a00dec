package main

// `hbcc trace` runs a kernel under heartbeat scheduling with the
// unified telemetry layer enabled and exports what the runtime did: a
// Chrome trace_event JSON file (one lane per worker — load it in Perfetto
// or chrome://tracing), a text timeline on stdout, and optionally the
// metrics registry in Prometheus text form.
//
// Usage:
//
//	hbcc trace kernels/spmv.hbk                        # trace.json + timeline
//	hbcc trace -workers 4 -runs 10 -o spmv.json kernels/spmv.hbk
//	hbcc trace -metrics kernels/spmv.hbk               # dump Prometheus text too
//	hbcc trace -serve 127.0.0.1:9090 kernels/spmv.hbk  # keep serving /metrics
//
// With -min-promotions N the exit status reports whether the trace captured
// at least N promotion events, and with -validate the written trace file is
// read back and JSON-parsed, which together let CI use `hbcc trace` as a
// self-validating smoke test of the whole telemetry path with no external
// tooling.

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"hbc"
	"hbc/internal/kernelfile"
	"hbc/internal/telemetry"
)

func traceCmd(fs *flag.FlagSet) func([]string) {
	var (
		workers   = fs.Int("workers", runtime.NumCPU(), "worker count")
		heartbeat = fs.Duration("heartbeat", 100*time.Microsecond, "heartbeat period")
		runs      = fs.Int("runs", 5, "repetitions (adaptive chunking keeps adapting across runs)")
		out       = fs.String("o", "trace.json", "Chrome trace output file (empty to skip)")
		bin       = fs.Duration("bin", time.Millisecond, "timeline bin width")
		ring      = fs.Int("ring", 0, "events per worker ring (0 = default)")
		metrics   = fs.Bool("metrics", false, "print the metrics registry in Prometheus text form")
		serve     = fs.String("serve", "", "keep serving /metrics and /vars on this address after the runs")
		minPromos = fs.Int("min-promotions", 0, "fail unless the trace holds at least this many promotion events")
		validate  = fs.Bool("validate", false, "re-read the written trace file and fail unless it parses as a non-empty Chrome trace")
	)
	return func(args []string) {
		if len(args) != 1 {
			usageExit(fs)
		}
		k, err := kernelfile.Load(args[0], kernelfile.Options{})
		if err != nil {
			fatal(err)
		}
		prog, err := hbc.Compile(k.Nest, hbc.Config{})
		if err != nil {
			fatal(err)
		}

		team := hbc.NewTeam(hbc.Workers(*workers), hbc.Heartbeat(*heartbeat), hbc.WithTelemetry(*ring))
		defer team.Close()
		r := team.Load(prog, k.Env)
		defer r.Close()

		t0 := time.Now()
		for i := 0; i < *runs; i++ {
			k.Env.Reset()
			r.Run()
		}
		elapsed := time.Since(t0)

		tel := team.Telemetry()
		snap := tel.Tracer.Snapshot()
		counts := snap.CountByKind()
		fmt.Printf("kernel %s: %d runs on %d workers in %v\n", k.Kernel.Name, *runs, team.Size(), elapsed.Round(time.Microsecond))
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
			fmt.Fprintf(os.Stderr, "hbcc trace: trace holds %d promotion events, want >= %d\n",
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
