package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"hbc"
	"hbc/internal/pulse"
)

// heartbeat is the paper's rate and the default of every binary.
const heartbeat = 100 * time.Microsecond

// libStack is one team with the workload's kernels loaded on it.
type libStack struct {
	team  *hbc.Team
	insts []*instance
	times setupTimes
}

func (s *libStack) close() {
	for _, in := range s.insts {
		in.runner.Close()
	}
	s.team.Close()
}

// setupLib does what a serve shard does before it can take a request: start
// a team, build every kernel on it, and run each once.
func setupLib(workers int, srcs []*kernelSrc, be backend, tune func(*hbc.Config), opts ...hbc.Option) (*libStack, error) {
	opts = append([]hbc.Option{hbc.Workers(workers), hbc.Heartbeat(heartbeat)}, opts...)
	s := &libStack{team: hbc.NewTeam(opts...)}
	for _, k := range srcs {
		in, err := loadInstance(s.team, k, be, tune, &s.times)
		if err != nil {
			s.close()
			return nil, fmt.Errorf("kernel %s: %w", k.name, err)
		}
		s.insts = append(s.insts, in)
		if _, err := in.invoke(context.Background()); err != nil {
			s.close()
			return nil, fmt.Errorf("kernel %s: first run: %w", k.name, err)
		}
	}
	return s, nil
}

// libCaller is the one closed-loop caller of a library workload.
type libCaller struct {
	stack *libStack
	refs  []reference
	mix   *mixer
	inv   int64
}

// run invokes kernels back to back for dur. With a tracer it also records
// invoke -> {reset, run} for every other block of invocations; the extra
// clock read and the appends are inside the measured latency, which is what
// trace.overhead_pct reports.
func (c *libCaller) run(start time.Time, dur time.Duration, spans *tracer) []rec {
	ctx := context.Background()
	recs := make([]rec, 0, 1<<15)
	for {
		t0 := time.Now()
		if t0.Sub(start) >= dur {
			return recs
		}
		k := c.mix.next()
		in := c.stack.insts[k]
		c.inv++
		tr := spans.on(c.inv)
		var (
			v   any
			err error
		)
		if tr == nil {
			v, err = in.invoke(ctx)
		} else {
			in.env.Reset()
			t1 := time.Now()
			v, err = in.runner.RunCtx(ctx)
			t2 := time.Now()
			root := tr.add(c.inv, -1, "invoke", k, t0, t2)
			tr.add(c.inv, root, "reset", k, t0, t1)
			tr.add(c.inv, root, "run", k, t1, t2)
		}
		lat := time.Since(t0)
		ok := err == nil && c.refs[k].checkValue(resultValue(v)) == nil
		recs = append(recs, rec{kernel: k, ok: ok, wrong: err == nil && !ok, traced: tr != nil, lat: lat})
	}
}

// checkOutputs runs every kernel once more and compares each declared
// output array with the serial elision. It returns one message per kernel
// that disagrees.
func (c *libCaller) checkOutputs(srcs []*kernelSrc) []string {
	var bad []string
	for k, in := range c.stack.insts {
		v, err := in.invoke(context.Background())
		if err == nil {
			err = c.refs[k].checkValue(resultValue(v))
		}
		if err == nil {
			err = c.refs[k].checkOutputs(in.env)
		}
		if err != nil {
			bad = append(bad, fmt.Sprintf("%s: %v", srcs[k].name, err))
		}
	}
	return bad
}

// counters is every public counter of the stack, read between windows.
type counters struct {
	sched                          hbc.SchedStats
	promotions, outer, forked      int64
	leftovers                      int64
	polls, detected, missed, lagNs int64
	// lagMax is each kernel's largest detection lag since its runner was
	// loaded: a maximum has no delta.
	lagMax []time.Duration
}

func (s *libStack) counters() counters {
	c := counters{sched: s.team.SchedStats()}
	for _, in := range s.insts {
		rs := in.runner.Stats()
		c.promotions += rs.Promotions()
		c.forked += rs.TasksForked()
		c.leftovers += rs.LeftoverRuns()
		if lv := rs.ByLevel(); len(lv) > 0 {
			c.outer += lv[0]
		}
		ps := in.runner.PulseStats()
		c.polls += ps.Polls
		c.detected += ps.Detected
		c.missed += ps.Missed
		c.lagNs += int64(ps.LagMean) * ps.Detected
		c.lagMax = append(c.lagMax, ps.LagMax)
	}
	return c
}

// counterMetrics turns two counter snapshots into the per-run core, pulse
// and sched metrics. The serving workloads fill the same struct from
// hbcserve's /metrics.
func counterMetrics(m map[string]float64, a, b counters, runs float64) {
	d := b.sched.Sub(a.sched)
	prom := float64(b.promotions - a.promotions)
	det := float64(b.detected - a.detected)
	missed := float64(b.missed - a.missed)
	m["core.promotions_per_run"] = share(prom, runs)
	m["core.promotions_outer_share"] = share(float64(b.outer-a.outer), prom)
	m["core.leftover_runs_per_run"] = share(float64(b.leftovers-a.leftovers), runs)
	m["core.tasks_forked_per_run"] = share(float64(b.forked-a.forked), runs)
	m["pulse.polls_per_run"] = share(float64(b.polls-a.polls), runs)
	m["pulse.detect_rate_pct"] = 100
	if det+missed > 0 {
		m["pulse.detect_rate_pct"] = 100 * det / (det + missed)
	}
	m["pulse.lag_mean_us"] = share(float64(b.lagNs-a.lagNs), det) / 1e3
	// A runner's maximum covers set-up, probes, warm-up and idle gaps too.
	// It is the window's own only where the window raised it; a window that
	// raised none reports no maximum (n/a) rather than an older one.
	for k, mx := range b.lagMax {
		if mx > a.lagMax[k] && us(mx) > m["pulse.lag_max_us"] {
			m["pulse.lag_max_us"] = us(mx)
		}
	}
	m["sched.spawned_per_run"] = share(float64(d.Spawned), runs)
	m["sched.steals_per_run"] = share(float64(d.Steals), runs)
	m["sched.steal_latency_us"] = share(float64(d.StealNanos), float64(d.Steals)) / 1e3
	m["sched.parks_per_run"] = share(float64(d.Parks), runs)
	m["sched.wakes_per_run"] = share(float64(d.Wakes), runs)
	m["sched.task_pool_miss_share"] = share(float64(d.TaskPoolMisses), float64(d.TaskPoolHits+d.TaskPoolMisses))
}

// ladderStep is one column of the paper's Fig. 7, expressed only through
// hbc.Config and a heartbeat source that never fires.
type ladderStep struct {
	metric string
	tune   func(*hbc.Config)
	never  bool
}

// ladder adds one mechanism per step, at one worker. Each step's metric is
// its increment over the previous step, as a percentage of serial time; the
// five sum to the whole one-worker overhead. The static chunk of 32 is the
// one internal/harness uses for its Fig. 7.
var ladder = []ladderStep{
	{"core.machinery_pct", func(c *hbc.Config) { c.DisablePromotion, c.StaticChunk = true, 1<<30 }, true},
	{"core.chunking_pct", func(c *hbc.Config) { c.DisablePromotion, c.StaticChunk = true, 32 }, true},
	{"pulse.polling_pct", func(c *hbc.Config) { c.DisablePromotion, c.StaticChunk = true, 32 }, false},
	{"core.adaptive_pct", func(c *hbc.Config) { c.DisablePromotion = true }, false},
	{"core.promote_pct", nil, false},
}

// measureLadder times every ladder step for every kernel, spending about
// budget in total. It returns the geometric-mean ratio to serial of each
// step and, per kernel, the p50 run time (ms) of the last step: one worker,
// everything enabled.
func measureLadder(srcs []*kernelSrc, be backend, refs []reference, budget time.Duration) (ratios []float64, oneWorker []float64, err error) {
	per := budget / time.Duration(len(ladder)*len(srcs))
	oneWorker = make([]float64, len(srcs))
	for _, step := range ladder {
		var opts []hbc.Option
		if step.never {
			opts = append(opts, hbc.WithSourceWrapper(func(pulse.Source) pulse.Source { return pulse.NewNever() }))
		}
		var rs []float64
		for k, src := range srcs {
			s, err := setupLib(1, []*kernelSrc{src}, be, step.tune, opts...)
			if err != nil {
				return nil, nil, fmt.Errorf("%s: %w", step.metric, err)
			}
			in := s.insts[0]
			var times []float64
			deadline := time.Now().Add(per)
			for n := 0; n < 3 || time.Now().Before(deadline); n++ {
				in.env.Reset()
				t0 := time.Now()
				_, err = in.runner.RunCtx(context.Background())
				times = append(times, ms(time.Since(t0)))
				if err != nil {
					break
				}
			}
			s.close()
			if err != nil {
				return nil, nil, fmt.Errorf("%s on %s: %w", step.metric, src.name, err)
			}
			oneWorker[k] = median(times)
			rs = append(rs, oneWorker[k]/ms(refs[k].serialP50))
		}
		ratios = append(ratios, geomean(rs))
	}
	return ratios, oneWorker, nil
}

// libTrial is one freshly set-up stack with its serial baselines, warmed up
// and ready to be measured.
type libTrial struct {
	stack  *libStack
	setupS []float64
	serial []time.Duration
	caller *libCaller
}

// libSetupReps is how many times a trial sets its stack up, keeping the
// last. Library set-up takes about 10 ms and single samples differ 2x, so
// setup_s needs more samples than there are trials.
const libSetupReps = 6

// startLibTrial sets the workload's stack up (timed: those are the setup_s
// samples), runs the serial elision of each kernel, and warms the stack up.
func startLibTrial(w workload, srcs []*kernelSrc, seed int64, warmup, probe time.Duration) (*libTrial, error) {
	t := &libTrial{serial: make([]time.Duration, len(srcs))}
	for i := 0; i < libSetupReps; i++ {
		if t.stack != nil {
			t.stack.close()
		}
		t0 := time.Now()
		stack, err := setupLib(runtime.NumCPU(), srcs, w.backend, nil)
		if err != nil {
			return nil, err
		}
		t.stack = stack
		t.setupS = append(t.setupS, time.Since(t0).Seconds())
	}
	stack := t.stack
	refs := make([]reference, len(srcs))
	for k, src := range srcs {
		refs[k] = measureSerial(src, probe)
		t.serial[k] = refs[k].serialP50
	}
	t.caller = &libCaller{stack: stack, refs: refs, mix: newMixer(seed, len(srcs))}
	t.caller.run(time.Now(), warmup, nil)
	return t, nil
}

// runLib runs one library workload: the untraced trials, or the traced run
// that yields the per-layer metrics.
func runLib(e *env, w workload, traced bool) (*result, error) {
	srcs, err := loadKernels(e.root, w.kernels)
	if err != nil {
		return nil, err
	}
	procs := []cpuProc{{name: "client"}}
	res := &result{workload: w.name, traced: traced, metrics: map[string]float64{}}

	if !traced {
		var ts []trial
		for i := 0; i < trials; i++ {
			t, err := startLibTrial(w, srcs, e.seed*trials+int64(i), e.warmup/trials, e.probe)
			if err != nil {
				return nil, err
			}
			dur := e.window / trials
			win := measureWindow(dur, procs, func(start time.Time) []rec { return t.caller.run(start, dur, nil) })
			res.count(win.recs)
			res.checked(len(srcs), t.caller.checkOutputs(srcs))
			t.stack.close()
			ts = append(ts, trial{win: win, serial: t.serial, setupS: t.setupS})
		}
		res.metrics = endToEndOf(ts)
		return res, nil
	}

	// Traced run, on one stack: the load with spans on every other block
	// of invocations, the counters read around it, then the one-worker
	// ladder. The serial probe is longer: one trial has no median to lean on.
	t, err := startLibTrial(w, srcs, e.seed, e.warmup, 4*e.probe)
	if err != nil {
		return nil, err
	}
	defer t.stack.close()
	stack, caller, serial := t.stack, t.caller, t.serial
	dur := e.window * 6 / 10
	tr := newTracer(time.Now(), 0, 1<<16)
	before := stack.counters()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	win := measureWindow(dur, procs, func(start time.Time) []rec { return caller.run(start, dur, tr) })
	runtime.ReadMemStats(&m1)
	after := stack.counters()
	res.count(win.recs)
	res.checked(len(srcs), caller.checkOutputs(srcs))

	ratios, oneWorker, err := measureLadder(srcs, w.backend, caller.refs, e.window*4/10)
	if err != nil {
		return nil, err
	}

	m := res.metrics
	runs := float64(okCount(win.recs))
	m["frontend.parse_compile_ms"] = ms(stack.times.parseCompile)
	m["analysis.facts_ms"] = ms(stack.times.facts)
	m["hbc.compile_load_ms"] = ms(stack.times.compileLoad)
	prev := 1.0
	for i, step := range ladder {
		m[step.metric] = 100 * (ratios[i] - prev)
		prev = ratios[i]
	}
	counterMetrics(m, before, after, runs)
	st := collectSpans([]*tracer{tr})
	m["hbc.reset_us_p50"] = 1e3 * median(st.dur["reset"])
	var gains []float64
	for k, src := range srcs {
		run := median(st.runByKernel[k])
		m["hbc.run_us_p50."+src.name] = 1e3 * run
		gains = append(gains, oneWorker[k]/run)
	}
	m["hbc.parallel_gain_x"] = geomean(gains)
	m["hbc.allocs_per_run"] = share(float64(m1.Mallocs-m0.Mallocs), runs)
	m["hbc.alloc_bytes_per_run"] = share(float64(m1.TotalAlloc-m0.TotalAlloc), runs)
	clientMetrics(m, win, srcs, serial)
	m["proc.peak_rss_mb.bench"] = selfPeakRSSmb()

	res.tracers = []*tracer{tr}
	if res.tracePath, err = e.tracePath(w.name); err != nil {
		return nil, err
	}
	if err := writeChromeTrace(res.tracePath, w.kernels, res.tracers); err != nil {
		return nil, err
	}
	return res, nil
}

// clientMetrics fills the metrics both kinds of workload take from the
// caller's side of the traced window.
func clientMetrics(m map[string]float64, win window, srcs []*kernelSrc, serial []time.Duration) {
	var plain, spanned []rec
	for _, r := range win.recs {
		if r.direct {
			// serve-closed's paired direct requests time the router hop; they
			// are not the workload, so no latency row or sample count has them.
			continue
		}
		if r.traced {
			spanned = append(spanned, r)
		} else {
			plain = append(plain, r)
		}
	}
	plainLat := latByKernel(plain, len(srcs))
	var pooled []float64
	for k, src := range srcs {
		m["core.serial_us."+src.name] = us(serial[k])
		m["hbc.ratio_x."+src.name] = median(plainLat[k]) / ms(serial[k])
		pooled = append(pooled, plainLat[k]...)
	}
	runs := float64(okCount(plain) + okCount(spanned))
	m["client.lat_p99_ms"] = quantile(pooled, 0.99)
	m["client.samples"] = runs
	// Every process but the router serves the paired direct requests too.
	served := float64(okCount(win.recs))
	for p, proc := range win.procs {
		n := served
		if proc.name == "hbcroute" {
			n = runs
		}
		m["proc.cpu_ms_per_run."+proc.name] = share(win.cpu[p], n)
	}
	off := kernelMeanQuantile(plainLat, 0.5)
	on := kernelMeanQuantile(latByKernel(spanned, len(srcs)), 0.5)
	m["trace.overhead_pct"] = 100 * (on - off) / off
}
