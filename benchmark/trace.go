package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one layer's share of one invocation, recorded by the benchmark's
// own code around a call into that layer. Every span of an invocation
// carries its id; parent indexes the tracer's span slice (-1 for the root).
type span struct {
	inv        int64
	parent     int
	name       string
	kernel     int
	start, end time.Duration // since the tracer's epoch
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is the untraced run. One tracer belongs to one goroutine.
type tracer struct {
	epoch time.Time
	track int // Chrome "tid": the client that issued the invocation
	spans []span
}

// spanBlock is how many consecutive invocations of one caller are spanned
// before as many are left plain. The traced window interleaves the two so
// that trace.overhead_pct compares like with like: a stack's latencies
// drift by more over a few seconds than spans cost.
const spanBlock = 32

// on reports whether the caller's n-th invocation records spans, and
// returns the tracer to hand to the recording calls: t or nil.
func (t *tracer) on(n int64) *tracer {
	if t == nil || (n/spanBlock)%2 == 0 {
		return nil
	}
	return t
}

// newTracer reserves room for spans up front so that, for about that many,
// recording one costs an append and no allocation.
func newTracer(epoch time.Time, track, spans int) *tracer {
	return &tracer{epoch: epoch, track: track, spans: make([]span, 0, spans)}
}

// add records a span and returns its index, the parent of its children.
func (t *tracer) add(inv int64, parent int, name string, kernel int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{inv: inv, parent: parent, name: name, kernel: kernel,
		start: start.Sub(t.epoch), end: end.Sub(t.epoch)})
	return len(t.spans) - 1
}

// addInside records two consecutive child spans whose durations the layer
// reported itself (hbcserve's queued_ms and run_ms), back-dated to sit in
// the middle of the parent: the response carries durations, not timestamps.
func (t *tracer) addInside(inv int64, parent int, kernel int, nameA string, a time.Duration, nameB string, b time.Duration) {
	if t == nil {
		return
	}
	p := t.spans[parent]
	if over := a + b - p.dur(); over > 0 {
		// The server's clock read more than the client saw end to end; trim
		// the longer child so self times stay non-negative.
		if a > b {
			a -= over
		} else {
			b -= over
		}
	}
	start := p.start + (p.dur()-a-b)/2
	t.spans = append(t.spans,
		span{inv: inv, parent: parent, name: nameA, kernel: kernel, start: start, end: start + a},
		span{inv: inv, parent: parent, name: nameB, kernel: kernel, start: start + a, end: start + a + b})
}

// selfTimes returns each span's duration minus the time its children cover.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.dur()
	}
	for _, s := range spans {
		if s.parent >= 0 {
			self[s.parent] -= s.dur()
		}
	}
	return self
}

// spanStats collects, per span name, every duration and self time in ms.
type spanStats struct {
	dur, self map[string][]float64
	// runByKernel holds the "run" span durations of each kernel.
	runByKernel map[int][]float64
}

func collectSpans(tracers []*tracer) spanStats {
	st := spanStats{dur: map[string][]float64{}, self: map[string][]float64{}, runByKernel: map[int][]float64{}}
	for _, t := range tracers {
		if t == nil {
			continue
		}
		self := selfTimes(t.spans)
		for i, s := range t.spans {
			st.dur[s.name] = append(st.dur[s.name], ms(s.dur()))
			st.self[s.name] = append(st.self[s.name], ms(self[i]))
			if s.name == "run" {
				st.runByKernel[s.kernel] = append(st.runByKernel[s.kernel], ms(s.dur()))
			}
		}
	}
	return st
}

// writeChromeTrace writes the spans as Chrome trace_event JSON ("X" complete
// events; load in chrome://tracing or Perfetto).
func writeChromeTrace(path string, kernels []string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	first := true
	for _, t := range tracers {
		if t == nil {
			continue
		}
		self := selfTimes(t.spans)
		for i, s := range t.spans {
			ev := map[string]any{
				"name": s.name, "ph": "X", "pid": 1, "tid": t.track,
				"ts": us(s.start), "dur": us(s.dur()),
				"args": map[string]any{"id": s.inv, "kernel": kernels[s.kernel], "self_us": us(self[i])},
			}
			b, err := json.Marshal(ev)
			if err != nil {
				f.Close()
				return err
			}
			if !first {
				w.WriteByte(',')
			}
			first = false
			w.WriteByte('\n')
			w.Write(b)
		}
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
