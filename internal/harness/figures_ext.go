package harness

// Extension experiments beyond the paper's figures, numbered 17–20 and 22
// (21 is retired, so published experiment numbers keep their meaning). They
// probe design choices the paper asserts but does not ablate (outer-loop-
// first, the heartbeat rate) and implement its concluding suggestion that
// an ideal compiler ships both heartbeat and static scheduling.

import (
	"fmt"
	"time"

	"hbc/internal/core"
	"hbc/internal/pulse"
	"hbc/internal/sched"
	"hbc/internal/stats"
	"hbc/internal/workloads"
)

func init() {
	registerFigure(17, "Extension: heartbeat-rate sensitivity", fig17)
	registerFigure(18, "Extension: worker-count scaling", fig18)
	registerFigure(19, "Extension: promotion-policy ablation", fig19)
	registerFigure(20, "Extension: heartbeat vs static scheduling per regularity", fig20)
}

// fig17 sweeps the heartbeat period around the paper's 100µs setting: too
// fast amortizes poorly (more promotions than useful work), too slow starves
// the system of parallelism. On any host the promotion count must fall
// monotonically as the period grows.
func fig17(cfg Config) (*stats.Table, error) {
	periods := []time.Duration{
		10 * time.Microsecond, 30 * time.Microsecond, 100 * time.Microsecond,
		300 * time.Microsecond, time.Millisecond, 10 * time.Millisecond,
	}
	tb := stats.NewTable("Experiment 17: heartbeat-rate sensitivity",
		"benchmark", "period", "speedup", "promotions")
	for _, name := range []string{"spmv-powerlaw", "mandelbrot"} {
		w, err := prepared(cfg, name)
		if err != nil {
			return nil, err
		}
		serial, err := measureSerial(cfg, w)
		if err != nil {
			return nil, err
		}
		for _, period := range periods {
			cfg.logf("fig17: %s @ %v\n", name, period)
			c := cfg
			c.Heartbeat = period
			s, err := newHBCSession(c, w, pulse.NewTimer(), core.Options{})
			if err != nil {
				return nil, err
			}
			d, err := s.measure(c)
			if err != nil {
				s.close()
				return nil, err
			}
			promos, _ := s.drv.Stats()
			s.close()
			tb.Row(name, period, stats.Speedup(serial, d), promos)
		}
	}
	return tb, nil
}

// fig18 scales the worker count from 1 to the configured maximum; the
// speedup column is the scaling curve. On a single-core host extra workers
// only add scheduling overhead — the curve is still informative.
func fig18(cfg Config) (*stats.Table, error) {
	tb := stats.NewTable("Experiment 18: worker-count scaling (HBC)",
		"benchmark", "workers", "speedup")
	counts := []int{1}
	for n := 2; n <= cfg.Workers; n *= 2 {
		counts = append(counts, n)
	}
	if last := counts[len(counts)-1]; last != cfg.Workers {
		counts = append(counts, cfg.Workers)
	}
	for _, name := range []string{"spmv-arrowhead", "mandelbrot", "pr"} {
		w, err := prepared(cfg, name)
		if err != nil {
			return nil, err
		}
		serial, err := measureSerial(cfg, w)
		if err != nil {
			return nil, err
		}
		for _, n := range counts {
			cfg.logf("fig18: %s @ %d workers\n", name, n)
			c := cfg
			c.Workers = n
			d, err := measureHBC(c, w, pulse.NewTimer(), core.Options{})
			if err != nil {
				return nil, err
			}
			tb.Row(name, n, stats.Speedup(serial, d))
		}
	}
	return tb, nil
}

// fig19 ablates the outer-loop-first policy against inner-first and
// self-only splitting on the irregular nested benchmarks, reporting both
// performance and how many promotions each policy needs.
func fig19(cfg Config) (*stats.Table, error) {
	policies := []core.Policy{core.PolicyOuterFirst, core.PolicyInnerFirst, core.PolicySelfOnly}
	tb := stats.NewTable("Experiment 19: promotion-policy ablation",
		"benchmark", "policy", "speedup", "promotions", "tasks")
	for _, name := range []string{"spmv-arrowhead", "spmv-powerlaw", "mandelbrot", "ttv"} {
		w, err := prepared(cfg, name)
		if err != nil {
			return nil, err
		}
		serial, err := measureSerial(cfg, w)
		if err != nil {
			return nil, err
		}
		for _, pol := range policies {
			cfg.logf("fig19: %s %v\n", name, pol)
			s, err := newHBCSession(cfg, w, pulse.NewTimer(), core.Options{Policy: pol})
			if err != nil {
				return nil, err
			}
			d, err := s.measure(cfg)
			if err != nil {
				s.close()
				return nil, err
			}
			promos, _ := s.drv.Stats()
			var tasks int64
			for _, x := range s.drv.Execs() {
				tasks += x.Stats().TasksForked()
			}
			s.close()
			tb.Row(name, pol.String(), stats.Speedup(serial, d), promos, tasks)
		}
	}
	return tb, nil
}

// fig20 implements the paper's concluding suggestion (§6.8): pair every
// workload with both schedulers. Static should win on regular workloads,
// heartbeat on irregular ones; the table shows the winner per benchmark.
func fig20(cfg Config) (*stats.Table, error) {
	tb := stats.NewTable("Experiment 20: static vs heartbeat scheduling of the same nests",
		"benchmark", "regular", "static", "heartbeat", "winner")
	names := append(append([]string{}, workloads.RegularSet()...),
		"spmv-arrowhead", "spmv-powerlaw", "mandelbrot", "ttv")
	for _, name := range names {
		cfg.logf("fig20: %s\n", name)
		w, err := prepared(cfg, name)
		if err != nil {
			return nil, err
		}
		serial, err := measureSerial(cfg, w)
		if err != nil {
			return nil, err
		}
		staticT, err := measureStatic(cfg, w)
		if err != nil {
			return nil, err
		}
		hbT, err := measureHBC(cfg, w, pulse.NewTimer(), core.Options{})
		if err != nil {
			return nil, err
		}
		ss, sh := stats.Speedup(serial, staticT), stats.Speedup(serial, hbT)
		winner := "static"
		if sh > ss {
			winner = "heartbeat"
		}
		tb.Row(name, fmt.Sprint(w.Info().Regular), ss, sh, winner)
	}
	return tb, nil
}

// measureStatic times the workload with each of its nests run under the
// static scheduler. Workloads drive their own iteration structure, so this
// uses a driver whose programs execute RunStatic.
func measureStatic(cfg Config, w workloads.Workload) (time.Duration, error) {
	team := sched.NewTeam(cfg.Workers)
	defer team.Close()
	drv := workloads.NewStaticDriver(team)
	if err := w.BindHBC(drv); err != nil {
		return 0, err
	}
	defer drv.Close()
	d := timeIt(cfg, func() { w.RunHBC(drv) })
	if cfg.Verify {
		if err := w.Verify(); err != nil {
			return 0, err
		}
	}
	return d, nil
}
