package main

import (
	"math"
	"time"
)

// trials is how many independent repetitions one untraced run is made of.
// Each trial sets the stack up afresh, times the serial elision, warms up,
// measures a window and tears down. One stack's memory layout and
// adaptive-chunking state move its latencies by several percent for as long
// as it lives, and the machine's speed drifts over minutes: five short-lived
// stacks, each with its own serial baseline taken seconds before its
// window, repeat far better than one long window on one stack.
const trials = 5

// rec is one invocation as the caller saw it.
type rec struct {
	kernel int
	ok     bool          // completed with the correct result
	wrong  bool          // completed with a result that differs from the serial elision
	traced bool          // spans were recorded for it
	direct bool          // serve-closed, traced run: the direct twin of a routed request
	status int           // serving: HTTP status (0 on a transport error)
	lat    time.Duration // closed loop: start to result; open loop: due time to result
	late   time.Duration // open loop: how long after its due time it was sent
}

// cpuProc is one process whose CPU time a window brackets; pid 0 is the
// benchmark process itself.
type cpuProc struct {
	name string
	pid  int
}

func (p cpuProc) cpuMs() float64 {
	if p.pid == 0 {
		return selfCPUms()
	}
	v, err := pidCPUms(p.pid)
	if err != nil {
		return math.NaN() // the process is gone; stopping it reports why
	}
	return v
}

// window is one measured interval: its invocations and the CPU time each
// process under test used during it.
type window struct {
	dur   time.Duration
	recs  []rec
	procs []cpuProc
	cpu   []float64 // per proc, ms used between the window's start and end
}

// measureWindow runs load for dur, bracketed by CPU readings. load receives
// the window's start and returns when every invocation it began has
// completed.
func measureWindow(dur time.Duration, procs []cpuProc, load func(start time.Time) []rec) window {
	w := window{dur: dur, procs: procs, cpu: make([]float64, len(procs))}
	for i, p := range procs {
		w.cpu[i] = -p.cpuMs()
	}
	w.recs = load(time.Now())
	for i, p := range procs {
		w.cpu[i] += p.cpuMs()
	}
	return w
}

// okCount returns the number of correct invocations.
func okCount(recs []rec) int {
	n := 0
	for _, r := range recs {
		if r.ok {
			n++
		}
	}
	return n
}

// latByKernel returns the latencies (ms) of the correct invocations of each
// kernel among recs.
func latByKernel(recs []rec, nk int) [][]float64 {
	by := make([][]float64, nk)
	for _, r := range recs {
		if r.ok {
			by[r.kernel] = append(by[r.kernel], ms(r.lat))
		}
	}
	return by
}

// kernelMeanQuantile is the latency definition every workload shares: the
// q-quantile of each kernel's invocations, averaged over the kernels that
// have samples. A pooled quantile of a mix whose kernels differ 30x in
// length sits on the boundary between two kernels and does not repeat.
func kernelMeanQuantile(by [][]float64, q float64) float64 {
	var qs []float64
	for _, lat := range by {
		if len(lat) > 0 {
			qs = append(qs, quantile(lat, q))
		}
	}
	return mean(qs)
}

// serialRatio is the geometric mean over kernels of p50 invocation time over
// p50 of the serial elision.
func serialRatio(by [][]float64, serial []time.Duration) float64 {
	var rs []float64
	for k, lat := range by {
		if len(lat) > 0 {
			rs = append(rs, median(lat)/ms(serial[k]))
		}
	}
	return geomean(rs)
}

// trial is one repetition of an untraced run.
type trial struct {
	win    window
	serial []time.Duration // p50 of each kernel's serial elision, taken just before win
	setupS []float64       // seconds each set-up of this trial took
}

// endToEndOf computes the end-to-end metrics of an untraced run. Latency
// quantiles pool the samples of every trial, so each rests on the whole
// run's sample; rates, which a single disturbed trial would drag, are the
// median of the per-trial values.
func endToEndOf(ts []trial) map[string]float64 {
	nk := len(ts[0].serial)
	var all []rec
	var rate, cpu, setup []float64
	serial := make([]time.Duration, nk)
	for _, t := range ts {
		all = append(all, t.win.recs...)
		n := float64(okCount(t.win.recs))
		var c float64
		for _, v := range t.win.cpu {
			c += v
		}
		rate = append(rate, n/t.win.dur.Seconds())
		cpu = append(cpu, c/n)
		setup = append(setup, t.setupS...)
	}
	for k := range serial {
		var vs []float64
		for _, t := range ts {
			vs = append(vs, float64(t.serial[k]))
		}
		serial[k] = time.Duration(median(vs))
	}
	by := latByKernel(all, nk)
	return map[string]float64{
		"setup_s":        median(setup),
		"lat_p50_ms":     kernelMeanQuantile(by, 0.5),
		"lat_p90_ms":     kernelMeanQuantile(by, 0.9),
		"runs_per_s":     median(rate),
		"serial_ratio_x": serialRatio(by, serial),
		"cpu_ms_per_run": median(cpu),
	}
}
