package harness

import (
	"fmt"
	"time"

	"hbc/internal/core"
	"hbc/internal/pulse"
	"hbc/internal/stats"
	"hbc/internal/telemetry"
	"hbc/internal/workloads"
)

func init() {
	registerFigure(10, "Static chunk size vs runtime on two mandelbrot inputs", fig10)
	registerFigure(11, "Static chunk sizes vs Adaptive Chunking on repeated mandelbrot", fig11)
	registerFigure(12, "Adaptive Chunking trace vs nonzeros per row", fig12)
	registerFigure(13, "Heartbeat detection rate vs target polling count", fig13)
}

// mandelInput switches a prepared mandelbrot between the paper's two
// Fig. 10 inputs.
type mandelInput interface {
	UseHighLatencyInput()
	UseLowLatencyInput()
}

// mandelAt returns a prepared mandelbrot pointed at the requested input.
func mandelAt(cfg Config, high bool) (workloads.Workload, error) {
	w, err := prepared(cfg, "mandelbrot")
	if err != nil {
		return nil, err
	}
	if high {
		w.(mandelInput).UseHighLatencyInput()
	} else {
		w.(mandelInput).UseLowLatencyInput()
	}
	return w, nil
}

// fig10 shows that the best static chunk size is input-dependent: the
// high-latency input degrades as the chunk grows while the low-latency
// input improves.
func fig10(cfg Config) (*stats.Table, error) {
	tb := stats.NewTable("Figure 10: mandelbrot run time by static chunk size",
		"chunk", "input1-high-latency", "input2-low-latency")
	chunks := []int64{1, 4, 16, 64, 256, 1024}
	times := map[bool][]time.Duration{}
	for _, high := range []bool{true, false} {
		w, err := mandelAt(cfg, high)
		if err != nil {
			return nil, err
		}
		for _, c := range chunks {
			cfg.logf("fig10: high=%v chunk=%d\n", high, c)
			d, err := measureHBC(cfg, w, pulse.NewTimer(), core.Options{StaticChunk: c})
			if err != nil {
				return nil, err
			}
			times[high] = append(times[high], d)
		}
	}
	for i, c := range chunks {
		tb.Row(fmt.Sprint(c), times[true][i], times[false][i])
	}
	return tb, nil
}

// fig11 runs mandelbrot ten times alternating between the two inputs —
// five high-latency and five low-latency invocations — under each static
// chunk size and under Adaptive Chunking, which retunes across invocations.
func fig11(cfg Config) (*stats.Table, error) {
	tb := stats.NewTable("Figure 11: 10 mixed mandelbrot invocations, speedup over serial",
		"chunking", "speedup")
	w, err := mandelAt(cfg, true)
	if err != nil {
		return nil, err
	}
	mb := w.(mandelInput)
	// The ten-invocation schedule: alternate inputs.
	runAll := func(run func()) time.Duration {
		t0 := time.Now()
		for i := 0; i < 10; i++ {
			if i%2 == 0 {
				mb.UseHighLatencyInput()
			} else {
				mb.UseLowLatencyInput()
			}
			run()
		}
		return time.Since(t0)
	}
	serial := runAll(w.Serial)

	measure := func(opts core.Options) (time.Duration, error) {
		s, err := newHBCSession(cfg, w, pulse.NewTimer(), opts)
		if err != nil {
			return 0, err
		}
		defer s.close()
		return runAll(func() { s.w.RunHBC(s.drv) }), nil
	}
	for _, c := range []int64{1, 2, 8, 32, 128, 512} {
		cfg.logf("fig11: static %d\n", c)
		d, err := measure(core.Options{StaticChunk: c})
		if err != nil {
			return nil, err
		}
		tb.Row(fmt.Sprintf("static-%d", c), stats.Speedup(serial, d))
	}
	cfg.logf("fig11: adaptive\n")
	d, err := measure(core.Options{})
	if err != nil {
		return nil, err
	}
	tb.Row("adaptive", stats.Speedup(serial, d))
	return tb, nil
}

// fig12 traces the chunk size Adaptive Chunking settles on while sweeping
// rows of four matrices whose per-row nonzero counts differ radically,
// bucketed over the row space. The chunks come from the tracer's retune
// events, each tagged with the row in flight when its window closed, over
// cfg.Runs sweeps (one retune per heartbeat window is sparse for a single
// short run); the nonzero average covers every row of the bucket.
func fig12(cfg Config) (*stats.Table, error) {
	const buckets = 10
	tb := stats.NewTable("Figure 12: Adaptive Chunking trace (row-bucket averages)",
		"matrix", "bucket", "avg-nnz/row", "avg-chunk")
	for _, name := range []string{"spmv-arrowhead", "spmv-powerlaw", "spmv-powerlaw-reverse", "spmv-random"} {
		cfg.logf("fig12: %s\n", name)
		w, err := prepared(cfg, name)
		if err != nil {
			return nil, err
		}
		s, err := newHBCSession(cfg, w, pulse.NewTimer(), core.Options{})
		if err != nil {
			return nil, err
		}
		tr := telemetry.NewTracer(cfg.Workers, 1<<14)
		s.drv.Exec("spmv").SetTracer(tr)
		for i := 0; i < max(cfg.Runs, 1); i++ {
			w.RunHBC(s.drv)
		}
		s.close()
		nnz := w.(interface{ RowNNZ(i int64) int64 })
		rows := w.(interface{ Rows() int64 }).Rows()
		bucket := func(row int64) int { return int(min(row*buckets/rows, buckets-1)) }
		var rowNNZ, rowN, chunk, retunes [buckets]float64
		for i := int64(0); i < rows; i++ {
			rowNNZ[bucket(i)] += float64(nnz.RowNNZ(i))
			rowN[bucket(i)]++
		}
		for _, l := range tr.Snapshot().Lanes {
			for _, e := range l.Events {
				if e.Kind == telemetry.KindRetune {
					chunk[bucket(e.E)] += float64(e.B)
					retunes[bucket(e.E)]++
				}
			}
		}
		for b := 0; b < buckets; b++ {
			switch {
			case rowN[b] == 0:
				tb.Row(name, b, "-", "-")
			case retunes[b] == 0:
				tb.Row(name, b, rowNNZ[b]/rowN[b], "-")
			default:
				tb.Row(name, b, rowNNZ[b]/rowN[b], chunk[b]/retunes[b])
			}
		}
	}
	return tb, nil
}

// fig13 sweeps Adaptive Chunking's target polling count and reports the
// heartbeat detection rate: low targets grow chunks so large that beats
// are missed; target 4 recovers ≈99%.
func fig13(cfg Config) (*stats.Table, error) {
	targets := []int64{1, 2, 4, 8, 16}
	tb := stats.NewTable("Figure 13: heartbeat detection rate (%) by target polling count",
		"benchmark", "t=1", "t=2", "t=4", "t=8", "t=16")
	for _, name := range workloads.TPALSet() {
		cfg.logf("fig13: %s\n", name)
		row := []any{name}
		for _, target := range targets {
			w, err := prepared(cfg, name)
			if err != nil {
				return nil, err
			}
			src := pulse.NewTimer()
			s, err := newHBCSession(cfg, w, src, core.Options{TargetPolls: target})
			if err != nil {
				return nil, err
			}
			w.RunHBC(s.drv)
			st := src.Stats()
			s.close()
			row = append(row, st.DetectionRate())
		}
		tb.Row(row...)
	}
	return tb, nil
}
