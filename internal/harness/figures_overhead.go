package harness

import (
	"hbc/internal/core"
	"hbc/internal/pulse"
	"hbc/internal/stats"
	"hbc/internal/workloads"
)

func init() {
	registerFigure(7, "Overhead breakdown of the heartbeat machinery (promotion disabled)", fig7)
	registerFigure(8, "Software polling overhead by chunking mechanism", fig8)
}

// fig7 measures the cost of the inserted machinery with promotion disabled,
// so execution stays sequential and every percent over the serial baseline
// is pure heartbeat overhead. The paper's stacked components are isolated
// incrementally (each column adds one mechanism to the previous):
//
//   - "machinery": the slice drivers with an effectively infinite chunk
//     and free polls — loop outlining, closure generation, promotion-point
//     insertion;
//   - "+chunking": a static 32-iteration chunk with free polls — adds chunk
//     bookkeeping and chunk-size transferring;
//   - "+polling": the same chunking with the Timer source — adds the real
//     clock-read polls of software polling;
//   - "adaptive": the shipping configuration (Adaptive Chunking + polling).
//
// The paper's fifth column, interrupt-based delivery, is not reproducible
// in Go, which has no user-level interrupts.
func fig7(cfg Config) (*stats.Table, error) {
	tb := stats.NewTable("Figure 7: overhead over serial, promotion disabled (%)",
		"benchmark", "machinery%", "+chunking%", "+polling%", "adaptive%")
	one := cfg
	one.Workers = 1 // sequential: the overhead experiment's configuration
	for _, name := range workloads.TPALSet() {
		cfg.logf("fig7: %s\n", name)
		w, err := prepared(cfg, name)
		if err != nil {
			return nil, err
		}
		serial, err := measureSerial(cfg, w)
		if err != nil {
			return nil, err
		}
		cols := []struct {
			src  pulse.Source
			opts core.Options
		}{
			{pulse.NewNever(), core.Options{DisablePromotion: true, StaticChunk: 1 << 30}},
			{pulse.NewNever(), core.Options{DisablePromotion: true, StaticChunk: 32}},
			{pulse.NewTimer(), core.Options{DisablePromotion: true, StaticChunk: 32}},
			{pulse.NewTimer(), core.Options{DisablePromotion: true}},
		}
		row := []any{name}
		for _, c := range cols {
			d, err := measureHBC(one, w, c.src, c.opts)
			if err != nil {
				return nil, err
			}
			row = append(row, overheadPct(serial, d))
		}
		tb.Row(row...)
	}
	return tb, nil
}

// fig8 isolates polling overhead under the three chunking mechanisms: a
// poll per iteration (no chunking), the prior work's static chunks, and
// Adaptive Chunking. Promotion stays disabled, as in the paper.
func fig8(cfg Config) (*stats.Table, error) {
	tb := stats.NewTable("Figure 8: software polling overhead over serial (%)",
		"benchmark", "no-chunking%", "static-chunking%", "adaptive-chunking%")
	one := cfg
	one.Workers = 1
	for _, name := range workloads.TPALSet() {
		cfg.logf("fig8: %s\n", name)
		w, err := prepared(cfg, name)
		if err != nil {
			return nil, err
		}
		serial, err := measureSerial(cfg, w)
		if err != nil {
			return nil, err
		}
		none, err := measureHBC(one, w, pulse.NewTimer(), core.Options{
			DisablePromotion: true,
			StaticChunk:      1,
		})
		if err != nil {
			return nil, err
		}
		static, err := measureHBC(one, w, pulse.NewTimer(), core.Options{
			DisablePromotion: true,
			StaticChunk:      32,
		})
		if err != nil {
			return nil, err
		}
		adaptive, err := measureHBC(one, w, pulse.NewTimer(), core.Options{
			DisablePromotion: true,
		})
		if err != nil {
			return nil, err
		}
		tb.Row(name,
			overheadPct(serial, none),
			overheadPct(serial, static),
			overheadPct(serial, adaptive))
	}
	return tb, nil
}
