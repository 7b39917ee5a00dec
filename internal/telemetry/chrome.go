package telemetry

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"
)

// Chrome trace_event export. The snapshot becomes one JSON object in the
// Trace Event Format understood by chrome://tracing and Perfetto: a single
// process ("hbc runtime"), one thread lane per worker (tid == worker ID),
// with every runtime event as a thread-scoped instant event carrying its
// payload in args. Instant events — rather than begin/end pairs — keep the
// export robust to ring truncation: a dropped park event can never leave an
// unmatched span open.

// chromePid is the process ID used for all lanes; the runtime is one
// process, and the worker ID is the thread lane.
const chromePid = 1

type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	Events          []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	// Truncated and Dropped surface ring overwrites in the file itself, so
	// a truncated trace is self-describing (the bugfix contract: truncation
	// must never be silent).
	Truncated bool   `json:"hbcTruncated"`
	Dropped   uint64 `json:"hbcDropped"`
}

// chromeArgs renders an event's payload as named args per kind.
func chromeArgs(e Event) map[string]any {
	switch e.Kind {
	case KindPromotion:
		atL, atI := UnpackLoopID(e.A)
		spL, spI := UnpackLoopID(e.B)
		return map[string]any{
			"at":       fmt.Sprintf("(%d,%d)", atL, atI),
			"split":    fmt.Sprintf("(%d,%d)", spL, spI),
			"lo":       e.C,
			"mid":      e.D,
			"hi":       e.E,
			"leftover": e.A != e.B,
		}
	case KindSteal:
		return map[string]any{"victim": e.A, "search_ns": e.B, "distance": e.C}
	case KindUnpark:
		reason := "timer"
		switch e.A {
		case UnparkWake:
			reason = "wake"
		case UnparkInbox:
			reason = "inbox"
		}
		return map[string]any{"reason": reason}
	case KindBeat:
		return map[string]any{"beats": e.A, "leaf": e.B}
	case KindFailover:
		return map[string]any{"n": e.A}
	case KindRetune:
		return map[string]any{"leaf": e.A, "chunk": e.B, "prev": e.C, "min_polls": e.D, "row": e.E}
	default:
		return nil
	}
}

// ChromeTrace renders the snapshot as Chrome trace_event JSON: metadata
// naming the process and one thread per worker, followed by every lane's
// events in time order within the lane. Timestamps are microseconds since
// the tracer was created and are monotonically non-decreasing per lane.
func (s Snapshot) ChromeTrace() ([]byte, error) {
	t := chromeTrace{
		DisplayTimeUnit: "ms",
		Truncated:       s.Truncated(),
		Dropped:         s.Dropped(),
	}
	t.Events = append(t.Events, chromeEvent{
		Name: "process_name", Ph: "M", Pid: chromePid,
		Args: map[string]any{"name": "hbc runtime"},
	})
	for _, l := range s.Lanes {
		t.Events = append(t.Events, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: chromePid, Tid: l.Worker,
			Args: map[string]any{"name": fmt.Sprintf("worker %d", l.Worker)},
		})
	}
	for _, l := range s.Lanes {
		for _, e := range l.Events {
			t.Events = append(t.Events, chromeEvent{
				Name: e.Kind.String(),
				Ph:   "i",
				S:    "t",
				Ts:   float64(e.When) / float64(time.Microsecond),
				Pid:  chromePid,
				Tid:  l.Worker,
				Args: chromeArgs(e),
			})
		}
	}
	return json.MarshalIndent(t, "", " ")
}

// Timeline renders the snapshot as a compact text timeline: per-bin event
// counts broken down by kind, merged across lanes, plus the truncation
// status. bin <= 0 selects one millisecond.
func (s Snapshot) Timeline(bin time.Duration) string {
	if bin <= 0 {
		bin = time.Millisecond
	}
	var all []Event
	for _, l := range s.Lanes {
		all = append(all, l.Events...)
	}
	var sb strings.Builder
	if len(all) == 0 {
		sb.WriteString("(no events recorded)\n")
		return sb.String()
	}
	sort.Slice(all, func(i, j int) bool { return all[i].When < all[j].When })
	last := all[len(all)-1].When
	bins := int(last/bin) + 1
	counts := make([]map[Kind]int, bins)
	totals := make([]int, bins)
	for _, e := range all {
		b := int(e.When / bin)
		if counts[b] == nil {
			counts[b] = make(map[Kind]int)
		}
		counts[b][e.Kind]++
		totals[b]++
	}
	maxTotal := 0
	for _, t := range totals {
		if t > maxTotal {
			maxTotal = t
		}
	}
	fmt.Fprintf(&sb, "events over time (%v bins, %d events, %d workers):\n",
		bin, len(all), len(s.Lanes))
	for b := 0; b < bins; b++ {
		bar := ""
		if maxTotal > 0 {
			bar = strings.Repeat("█", totals[b]*32/maxTotal)
		}
		var parts []string
		for _, k := range Kinds() {
			if c := counts[b][k]; c > 0 {
				parts = append(parts, fmt.Sprintf("%s=%d", k, c))
			}
		}
		fmt.Fprintf(&sb, "%10v |%-32s %d  %s\n",
			(time.Duration(b) * bin).Round(time.Microsecond), bar, totals[b],
			strings.Join(parts, " "))
	}
	if d := s.Dropped(); d > 0 {
		fmt.Fprintf(&sb, "TRUNCATED: %d events overwritten (grow the ring to keep them)\n", d)
	}
	return sb.String()
}
