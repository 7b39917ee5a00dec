package harness

import (
	"fmt"

	"hbc/internal/core"
	"hbc/internal/omp"
	"hbc/internal/pulse"
	"hbc/internal/stats"
	"hbc/internal/workloads"
)

func init() {
	registerFigure(4, "HBC vs OpenMP (dynamic) on irregular workloads", fig4)
	registerFigure(5, "Parallelism promotions by nesting level", fig5)
	registerFigure(6, "HBC vs TPAL on the iterative loop benchmarks", fig6)
	registerFigure(16, "HBC vs OpenMP (static) on regular workloads", fig16)
}

// fig4 reproduces the headline comparison: serial baseline, OpenMP with the
// dynamic schedule (default chunk 1, outermost loop only — the paper's
// recommended-practice baseline) and HBC, over every irregular benchmark.
func fig4(cfg Config) (*stats.Table, error) {
	tb := stats.NewTable("Figure 4: speedup over serial on "+fmt.Sprint(cfg.Workers)+" workers (irregular workloads)",
		"benchmark", "serial", "omp-dynamic", "hbc", "hbc/omp")
	pool := omp.NewPool(cfg.Workers)
	defer pool.Close()
	var ompSp, hbcSp []float64
	for _, name := range workloads.Irregular() {
		cfg.logf("fig4: %s\n", name)
		w, err := prepared(cfg, name)
		if err != nil {
			return nil, err
		}
		serial, err := measureSerial(cfg, w)
		if err != nil {
			return nil, err
		}
		ompT, err := measureOMP(cfg, w, pool, workloads.OMPConfig{Sched: omp.Dynamic, Chunk: 1})
		if err != nil {
			return nil, err
		}
		hbcT, err := measureHBC(cfg, w, pulse.NewTimer(), core.Options{})
		if err != nil {
			return nil, err
		}
		so, sh := stats.Speedup(serial, ompT), stats.Speedup(serial, hbcT)
		ompSp = append(ompSp, so)
		hbcSp = append(hbcSp, sh)
		tb.Row(name, serial, so, sh, sh/so)
	}
	gm0, gm1 := stats.GeoMean(ompSp), stats.GeoMean(hbcSp)
	tb.Row("geomean", "-", gm0, gm1, gm1/gm0)
	return tb, nil
}

// fig5 reproduces the promotion-distribution statistic: the share of
// promotions generated at each loop nesting level while running under HBC.
func fig5(cfg Config) (*stats.Table, error) {
	tb := stats.NewTable("Figure 5: parallelism promotions by nesting level (%)",
		"benchmark", "promotions", "level0", "level1", "level2")
	for _, name := range workloads.Irregular() {
		cfg.logf("fig5: %s\n", name)
		w, err := prepared(cfg, name)
		if err != nil {
			return nil, err
		}
		s, err := newHBCSession(cfg, w, pulse.NewTimer(), core.Options{})
		if err != nil {
			return nil, err
		}
		w.RunHBC(s.drv)
		promos, byLevel := s.drv.Stats()
		s.close()
		if cfg.Verify {
			if err := w.Verify(); err != nil {
				return nil, err
			}
		}
		pct := func(lvl int) any {
			if lvl >= len(byLevel) || promos == 0 {
				return "-"
			}
			return 100 * float64(byLevel[lvl]) / float64(promos)
		}
		tb.Row(name, promos, pct(0), pct(1), pct(2))
	}
	return tb, nil
}

// fig6 compares HBC against the TPAL configuration (serial leftover task,
// static chunking) on the eight iterative loop benchmarks of the prior
// work. TPAL's third ingredient, the ping-thread interrupt, has no Go
// equivalent (no user-level interrupts), so both columns poll a
// pulse.Timer.
func fig6(cfg Config) (*stats.Table, error) {
	tb := stats.NewTable("Figure 6: HBC vs TPAL speedup over serial",
		"benchmark", "serial", "tpal", "hbc", "hbc/tpal")
	var tpalSp, hbcSp []float64
	for _, name := range workloads.TPALSet() {
		cfg.logf("fig6: %s\n", name)
		w, err := prepared(cfg, name)
		if err != nil {
			return nil, err
		}
		serial, err := measureSerial(cfg, w)
		if err != nil {
			return nil, err
		}
		// TPAL: per-benchmark hand-tuned static chunks; 32 is the order of
		// magnitude the prior work settles on for these kernels.
		tpalT, err := measureHBC(cfg, w, pulse.NewTimer(), core.Options{
			Mode:  core.ModeTPAL,
			Chunk: core.ChunkPolicy{Kind: core.ChunkStatic, Size: 32},
		})
		if err != nil {
			return nil, err
		}
		hbcT, err := measureHBC(cfg, w, pulse.NewTimer(), core.Options{})
		if err != nil {
			return nil, err
		}
		st, sh := stats.Speedup(serial, tpalT), stats.Speedup(serial, hbcT)
		tpalSp = append(tpalSp, st)
		hbcSp = append(hbcSp, sh)
		tb.Row(name, serial, st, sh, sh/st)
	}
	gm0, gm1 := stats.GeoMean(tpalSp), stats.GeoMean(hbcSp)
	tb.Row("geomean", "-", gm0, gm1, gm1/gm0)
	return tb, nil
}

// fig16 compares HBC against the OpenMP static schedule on the regular
// benchmarks, where the paper expects static to win everywhere but kmeans.
func fig16(cfg Config) (*stats.Table, error) {
	tb := stats.NewTable("Figure 16: speedup over serial on regular workloads",
		"benchmark", "omp-static", "hbc", "hbc/omp")
	pool := omp.NewPool(cfg.Workers)
	defer pool.Close()
	var ompSp, hbcSp []float64
	for _, name := range workloads.RegularSet() {
		cfg.logf("fig16: %s\n", name)
		w, err := prepared(cfg, name)
		if err != nil {
			return nil, err
		}
		serial, err := measureSerial(cfg, w)
		if err != nil {
			return nil, err
		}
		ompT, err := measureOMP(cfg, w, pool, workloads.OMPConfig{Sched: omp.Static})
		if err != nil {
			return nil, err
		}
		hbcT, err := measureHBC(cfg, w, pulse.NewTimer(), core.Options{})
		if err != nil {
			return nil, err
		}
		so, sh := stats.Speedup(serial, ompT), stats.Speedup(serial, hbcT)
		ompSp = append(ompSp, so)
		hbcSp = append(hbcSp, sh)
		tb.Row(name, so, sh, sh/so)
	}
	tb.Row("geomean", stats.GeoMean(ompSp), stats.GeoMean(hbcSp), stats.GeoMean(hbcSp)/stats.GeoMean(ompSp))
	return tb, nil
}
