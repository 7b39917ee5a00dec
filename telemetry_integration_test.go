package hbc

import (
	"encoding/json"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hbc/internal/telemetry"
)

// TestTelemetryEndToEnd drives the public telemetry surface: a team created
// with WithTelemetry traces a run's promotions on worker lanes, exports a
// parseable Chrome trace, and gathers scheduler, trace, and per-run metrics
// through the registry.
func TestTelemetryEndToEnd(t *testing.T) {
	team := NewTeam(Workers(2), Heartbeat(50*time.Microsecond), WithTelemetry(0))
	t.Cleanup(team.Close)
	tel := team.Telemetry()
	if tel == nil || tel.Tracer == nil || tel.Registry == nil {
		t.Fatal("WithTelemetry did not populate the telemetry layer")
	}

	var visits atomic.Int64
	nest := &Nest{
		Name: "teltest",
		Root: &Loop{
			Name:   "teltest",
			Bounds: RangeN(400000),
			Body: func(_ any, _ []int64, lo, hi int64, _ any) {
				visits.Add(hi - lo)
			},
		},
	}
	prog := MustCompile(nest, Config{})
	r := team.Load(prog, nil)
	defer r.Close()
	for i := 0; i < 3; i++ {
		r.Run()
	}
	if visits.Load() != 3*400000 {
		t.Fatalf("visited %d iterations", visits.Load())
	}
	if r.Telemetry() != tel {
		t.Fatal("Runner.Telemetry does not return the team's layer")
	}

	snap := tel.Tracer.Snapshot()
	if len(snap.Lanes) != team.Size() {
		t.Fatalf("%d lanes for %d workers", len(snap.Lanes), team.Size())
	}
	counts := snap.CountByKind()
	if promos := r.Stats().Promotions(); promos > 0 && counts[telemetry.KindPromotion] == 0 {
		t.Fatalf("stats saw %d promotions but the trace has none", promos)
	}
	raw, err := snap.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	var parsed map[string]any
	if err := json.Unmarshal(raw, &parsed); err != nil {
		t.Fatalf("Chrome trace does not parse: %v", err)
	}
	if _, ok := parsed["traceEvents"]; !ok {
		t.Fatal("trace JSON has no traceEvents key")
	}

	// The registry must expose the sched, trace, and per-run groups.
	var sb strings.Builder
	if err := tel.Registry.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"hbc_sched_spawned_total",
		"hbc_trace_events_total",
		"hbc_run_teltest_promotions_total",
		"hbc_run_teltest_pulse_polls_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("registry output missing %s", want)
		}
	}
}

// TestTelemetryOffByDefault pins the zero-cost default: without
// WithTelemetry there is no telemetry layer and runs behave identically.
func TestTelemetryOffByDefault(t *testing.T) {
	team := testTeam(t, 2)
	if team.Telemetry() != nil {
		t.Fatal("telemetry layer present without WithTelemetry")
	}
	var visits atomic.Int64
	nest := &Nest{
		Name: "plain",
		Root: &Loop{
			Name:   "plain",
			Bounds: RangeN(100000),
			Body: func(_ any, _ []int64, lo, hi int64, _ any) {
				visits.Add(hi - lo)
			},
		},
	}
	r := team.Load(MustCompile(nest, Config{}), nil)
	defer r.Close()
	r.Run()
	if visits.Load() != 100000 {
		t.Fatalf("visited %d iterations", visits.Load())
	}
	if r.Telemetry() != nil {
		t.Fatal("runner reports telemetry on a plain team")
	}
}
