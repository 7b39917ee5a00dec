package main

// `hbcc fig` regenerates the paper's evaluation figures.
//
// Usage:
//
//	hbcc fig -fig 4                 # one figure
//	hbcc fig -all                   # Figs. 4–16 in order
//	hbcc fig -bench spmv-arrowhead  # one benchmark across the three engines
//
// Common flags: -runs N (median of N, default 3), -scale F (input scale,
// default 1.0), -workers N (default NumCPU), -heartbeat D (default 100µs),
// -verify (check every output against the serial oracle), -v (progress),
// -csv DIR (also write each figure's table as CSV).
//
// The whole-stack benchmark is `go run ./benchmark`; the scheduler, policy
// and slice-task microbenchmarks are `go test -bench` functions whose
// allocation gates run as ordinary tests.

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"hbc/internal/core"
	"hbc/internal/harness"
	"hbc/internal/omp"
	"hbc/internal/pulse"
	"hbc/internal/sched"
	"hbc/internal/stats"
	"hbc/internal/workloads"
)

func figCmd(fs *flag.FlagSet) func([]string) {
	var (
		fig       = fs.Int("fig", 0, "figure number to regenerate (4-16)")
		all       = fs.Bool("all", false, "regenerate every figure")
		bench     = fs.String("bench", "", "run one benchmark across serial/OMP/HBC")
		list      = fs.Bool("list", false, "list figures and benchmarks")
		runs      = fs.Int("runs", 3, "repetitions per measurement (median reported)")
		scale     = fs.Float64("scale", 1.0, "input scale factor")
		workers   = fs.Int("workers", runtime.NumCPU(), "worker count")
		heartbeat = fs.Duration("heartbeat", 100*time.Microsecond, "heartbeat period")
		verify    = fs.Bool("verify", false, "verify outputs against the serial oracle")
		verbose   = fs.Bool("v", false, "log progress")
		bars      = fs.Bool("bars", false, "also render numeric columns as bar charts")
		csvDir    = fs.String("csv", "", "also write each figure's table as CSV into this directory")
	)
	return func([]string) {
		var progress io.Writer
		if *verbose {
			progress = os.Stderr
		}
		cfg := harness.Config{
			Workers:   *workers,
			Runs:      *runs,
			Scale:     *scale,
			Heartbeat: *heartbeat,
			Verify:    *verify,
			Out:       progress,
		}

		switch {
		case *list:
			fmt.Println("figures:")
			for _, f := range harness.Figures() {
				fmt.Printf("  %2d  %s\n", f.ID, f.Title)
			}
			fmt.Println("benchmarks:")
			for _, n := range workloads.Names() {
				fmt.Printf("  %s\n", n)
			}
		case *all:
			for _, f := range harness.Figures() {
				if err := runFigure(f.ID, cfg, *bars, *csvDir); err != nil {
					fatal(err)
				}
			}
		case *fig != 0:
			if err := runFigure(*fig, cfg, *bars, *csvDir); err != nil {
				fatal(err)
			}
		case *bench != "":
			if err := runBench(*bench, cfg); err != nil {
				fatal(err)
			}
		default:
			usageExit(fs)
		}
	}
}

func runFigure(id int, cfg harness.Config, bars bool, csvDir string) error {
	t0 := time.Now()
	tb, err := harness.Run(id, cfg)
	if err != nil {
		return fmt.Errorf("figure %d: %w", id, err)
	}
	fmt.Println(tb.String())
	if bars && len(tb.Headers) >= 2 {
		fmt.Println(stats.BarsFromTable(tb, 0, len(tb.Headers)-1).String())
	}
	if csvDir != "" {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(csvDir, fmt.Sprintf("fig%02d.csv", id))
		if err := os.WriteFile(path, []byte(tb.CSV()), 0o644); err != nil {
			return err
		}
		fmt.Printf("(csv: %s)\n", path)
	}
	fmt.Printf("(figure %d took %v)\n\n", id, time.Since(t0).Round(time.Millisecond))
	return nil
}

// runBench times one benchmark under serial, OpenMP dynamic, and HBC.
func runBench(name string, cfg harness.Config) error {
	w, err := workloads.New(name)
	if err != nil {
		return err
	}
	w.Prepare(cfg.Scale)

	check := func(engine string) error {
		if !cfg.Verify {
			return nil
		}
		if err := w.Verify(); err != nil {
			return fmt.Errorf("%s: %w", engine, err)
		}
		return nil
	}

	serial := median(cfg.Runs, nil, w.Serial)
	if err := check("serial"); err != nil {
		return err
	}

	pool := omp.NewPool(cfg.Workers)
	ompT := median(cfg.Runs, nil, func() { w.OMP(pool, workloads.OMPConfig{Sched: omp.Dynamic, Chunk: 1}) })
	pool.Close()
	if err := check("omp"); err != nil {
		return err
	}

	team := sched.NewTeam(cfg.Workers)
	drv := workloads.NewDriver(team, pulse.NewTimer(), cfg.Heartbeat, core.Options{})
	if err := w.BindHBC(drv); err != nil {
		return err
	}
	hbcT := median(cfg.Runs, nil, func() { w.RunHBC(drv) })
	promos, byLevel := drv.Stats()
	drv.Close()
	team.Close()
	if err := check("hbc"); err != nil {
		return err
	}

	tb := stats.NewTable(fmt.Sprintf("%s (scale %.2f, %d workers, median of %d)",
		name, cfg.Scale, cfg.Workers, cfg.Runs),
		"engine", "time", "speedup")
	tb.Row("serial", serial, 1.0)
	tb.Row("omp-dynamic", ompT, stats.Speedup(serial, ompT))
	tb.Row("hbc", hbcT, stats.Speedup(serial, hbcT))
	fmt.Println(tb.String())
	fmt.Printf("hbc promotions: %d by level %v\n", promos, byLevel)
	return nil
}
