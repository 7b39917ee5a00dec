package telemetry

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestNilTracerIsDisabled(t *testing.T) {
	var tr *Tracer
	tr.Emit(0, KindSteal, 1, 2, 3, 4, 5) // must not panic
	if tr.Workers() != 0 {
		t.Fatal("nil tracer has workers")
	}
	s := tr.Snapshot()
	if len(s.Lanes) != 0 || s.Truncated() {
		t.Fatal("nil tracer produced a non-empty snapshot")
	}
	if total, dropped := tr.Totals(); total != 0 || dropped != 0 {
		t.Fatal("nil tracer has totals")
	}
}

func TestEmitOutOfRangeDropped(t *testing.T) {
	tr := NewTracer(2, 4)
	tr.Emit(-1, KindPark, 0, 0, 0, 0, 0)
	tr.Emit(2, KindPark, 0, 0, 0, 0, 0)
	if total, _ := tr.Totals(); total != 0 {
		t.Fatalf("out-of-range emits recorded: total=%d", total)
	}
}

// TestRingWrapCountsDrops pins the truncation contract: a full ring keeps
// the newest events and counts the overwritten ones, so a truncated trace
// is distinguishable from a complete one.
func TestRingWrapCountsDrops(t *testing.T) {
	tr := NewTracer(1, 4)
	for i := 0; i < 10; i++ {
		tr.Emit(0, KindBeat, int64(i), 0, 0, 0, 0)
	}
	s := tr.Snapshot()
	l := s.Lanes[0]
	if l.Total != 10 || l.Dropped != 6 {
		t.Fatalf("total=%d dropped=%d, want 10/6", l.Total, l.Dropped)
	}
	if len(l.Events) != 4 {
		t.Fatalf("kept %d events, want 4", len(l.Events))
	}
	for i, e := range l.Events {
		if want := int64(6 + i); e.A != want {
			t.Fatalf("event %d has A=%d, want %d (newest-4 retained, oldest first)", i, e.A, want)
		}
	}
	if !s.Truncated() || s.Dropped() != 6 {
		t.Fatalf("snapshot truncation: truncated=%v dropped=%d", s.Truncated(), s.Dropped())
	}
}

func TestPackLoopIDRoundTrip(t *testing.T) {
	for _, c := range [][2]int{{0, 0}, {1, 7}, {3, 1 << 20}, {100, 0}} {
		l, i := UnpackLoopID(PackLoopID(c[0], c[1]))
		if l != c[0] || i != c[1] {
			t.Fatalf("round trip (%d,%d) -> (%d,%d)", c[0], c[1], l, i)
		}
	}
}

// fixedClock makes event timestamps deterministic for golden tests.
func fixedClock(tr *Tracer) {
	var n int64
	tr.now = func() time.Duration {
		n++
		return time.Duration(n) * 100 * time.Microsecond
	}
}

// buildSnapshot emits one event of every kind across two lanes.
func buildSnapshot() Snapshot {
	tr := NewTracer(2, 8)
	fixedClock(tr)
	tr.Emit(0, KindBeat, 1, 0, 0, 0, 0)
	tr.Emit(0, KindPromotion, PackLoopID(1, 0), PackLoopID(0, 0), 10, 15, 20)
	tr.Emit(0, KindRetune, 0, 8, 4, 8, 12)
	tr.Emit(1, KindSteal, 0, 1500, 0, 0, 0)
	tr.Emit(1, KindPark, 0, 0, 0, 0, 0)
	tr.Emit(1, KindUnpark, UnparkWake, 0, 0, 0, 0)
	return tr.Snapshot()
}

func TestEmitPayloadSlots(t *testing.T) {
	// KindPromotion uses all five payload slots; check they survive export.
	s := buildSnapshot()
	var promo *Event
	for i, e := range s.Lanes[0].Events {
		if e.Kind == KindPromotion {
			promo = &s.Lanes[0].Events[i]
		}
	}
	if promo == nil {
		t.Fatal("no promotion event")
	}
	if promo.C != 10 || promo.D != 15 || promo.E != 20 {
		t.Fatalf("promotion payload = %+v", promo)
	}
}

// TestChromeTraceValid checks the exported trace against the Chrome
// trace_event contract the downstream viewers rely on: it parses as JSON,
// every lane's timestamps are monotonic, and the pid/tid lanes match the
// worker IDs.
func TestChromeTraceValid(t *testing.T) {
	s := buildSnapshot()
	raw, err := s.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Events []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		Truncated bool   `json:"hbcTruncated"`
		Dropped   uint64 `json:"hbcDropped"`
	}
	if err := json.Unmarshal(raw, &parsed); err != nil {
		t.Fatalf("trace does not parse as JSON: %v", err)
	}
	lastTs := map[int]float64{}
	lanes := map[int]bool{}
	kinds := map[string]int{}
	for _, e := range parsed.Events {
		if e.Pid != chromePid {
			t.Fatalf("event %q has pid %d, want %d", e.Name, e.Pid, chromePid)
		}
		if e.Ph == "M" {
			continue
		}
		lanes[e.Tid] = true
		kinds[e.Name]++
		if e.Ts < lastTs[e.Tid] {
			t.Fatalf("lane %d: ts %v < previous %v (not monotonic)", e.Tid, e.Ts, lastTs[e.Tid])
		}
		lastTs[e.Tid] = e.Ts
	}
	for w := 0; w < 2; w++ {
		if !lanes[w] {
			t.Fatalf("no lane for worker %d", w)
		}
	}
	if kinds["promotion"] < 1 {
		t.Fatal("no promotion event in trace")
	}
	if parsed.Truncated || parsed.Dropped != 0 {
		t.Fatal("untruncated snapshot exported as truncated")
	}
}

// TestChromeTraceGolden locks the exact export format so viewer-visible
// changes are deliberate. Regenerate with -update.
func TestChromeTraceGolden(t *testing.T) {
	s := buildSnapshot()
	raw, err := s.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "golden_trace.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/telemetry -update` to create it)", err)
	}
	if string(raw) != string(want) {
		t.Fatalf("chrome trace drifted from golden file %s:\n--- got ---\n%s\n--- want ---\n%s",
			golden, raw, want)
	}
}

func TestTimelineEdges(t *testing.T) {
	s := buildSnapshot()
	out := s.Timeline(0) // bin <= 0 edge: falls back to 1ms
	if !strings.Contains(out, "1ms bins") {
		t.Fatalf("Timeline(0) did not fall back to 1ms bins:\n%s", out)
	}
	if !strings.Contains(out, "promotion=1") {
		t.Fatalf("Timeline lost the promotion:\n%s", out)
	}
	if out := (Snapshot{}).Timeline(-1); !strings.Contains(out, "no events") {
		t.Fatalf("empty timeline = %q", out)
	}

	// A truncated snapshot must announce it.
	tr := NewTracer(1, 2)
	for i := 0; i < 5; i++ {
		tr.Emit(0, KindPark, 0, 0, 0, 0, 0)
	}
	if out := tr.Snapshot().Timeline(time.Millisecond); !strings.Contains(out, "TRUNCATED: 3") {
		t.Fatalf("truncated timeline did not announce drops:\n%s", out)
	}
}

func TestRegistryPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Register("sched", func(emit func(string, float64)) {
		emit("steals_total", 42)
		emit("lag_mean_ns", 1.5)
	})
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE hbc_sched_steals_total counter",
		"hbc_sched_steals_total 42",
		"# TYPE hbc_sched_lag_mean_ns gauge",
		"hbc_sched_lag_mean_ns 1.5",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestRegistrySanitizesAndDedups(t *testing.T) {
	r := NewRegistry()
	n1 := r.Register("run spmv", func(emit func(string, float64)) { emit("x", 1) })
	n2 := r.Register("run spmv", func(emit func(string, float64)) { emit("x", 2) })
	if n1 != "run_spmv" || n2 != "run_spmv_2" {
		t.Fatalf("registered names %q, %q", n1, n2)
	}
	samples := r.Gather()
	if len(samples) != 2 {
		t.Fatalf("gathered %d samples, want 2", len(samples))
	}
	if samples[0].Name != "hbc_run_spmv_x" || samples[1].Name != "hbc_run_spmv_2_x" {
		t.Fatalf("sample names %q, %q", samples[0].Name, samples[1].Name)
	}
}

func TestRegistryExpvarJSON(t *testing.T) {
	r := NewRegistry()
	r.Register("g", func(emit func(string, float64)) { emit("v", 7) })
	var m map[string]float64
	if err := json.Unmarshal([]byte(r.ExpvarJSON()), &m); err != nil {
		t.Fatal(err)
	}
	if m["hbc_g_v"] != 7 {
		t.Fatalf("expvar JSON = %v", m)
	}
	// PublishExpvar must be idempotent across registries sharing a name.
	r.PublishExpvar("hbc_test_metrics")
	r2 := NewRegistry()
	r2.Register("g", func(emit func(string, float64)) { emit("v", 8) })
	r2.PublishExpvar("hbc_test_metrics") // must not panic, replaces r
}

func TestRegistryServe(t *testing.T) {
	r := NewRegistry()
	r.Register("srv", func(emit func(string, float64)) { emit("up", 1) })
	ms, err := r.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	for _, c := range []struct{ path, want string }{
		{"/metrics", "hbc_srv_up 1"},
		{"/vars", `"hbc_srv_up": 1`},
	} {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", ms.Addr(), c.path))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", c.path, resp.StatusCode)
		}
		if !strings.Contains(string(body), c.want) {
			t.Fatalf("GET %s: body missing %q:\n%s", c.path, c.want, body)
		}
	}
}

// TestConcurrentEmitSnapshot exercises the lock-light lanes under the race
// detector: one emitter per lane with concurrent snapshots and totals.
func TestConcurrentEmitSnapshot(t *testing.T) {
	const workers = 4
	tr := NewTracer(workers, 64)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tr.Emit(w, Kind(i%numKinds), int64(i), 0, 0, 0, 0)
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		s := tr.Snapshot()
		for _, l := range s.Lanes {
			if uint64(len(l.Events)) != l.Total-l.Dropped {
				t.Errorf("lane %d: %d events, total %d, dropped %d",
					l.Worker, len(l.Events), l.Total, l.Dropped)
			}
			for j := 1; j < len(l.Events); j++ {
				if l.Events[j].When < l.Events[j-1].When {
					t.Errorf("lane %d: events out of order", l.Worker)
				}
			}
		}
		tr.Totals()
	}
	close(stop)
	wg.Wait()
}
