package harness

import (
	"strings"
	"testing"
	"time"

	"hbc/internal/stats"
)

// tiny returns a configuration small enough that every figure runs in
// seconds while still exercising the full pipeline.
func tiny() Config {
	return Config{
		Workers:   2,
		Runs:      1,
		Scale:     0.01,
		Heartbeat: 100 * time.Microsecond,
		Verify:    true,
	}
}

func TestFiguresRegistered(t *testing.T) {
	figs := Figures()
	if len(figs) != 18 {
		t.Fatalf("figures = %d, want 18 (Figs. 4-16 + extensions 17-20, 22)", len(figs))
	}
	for i, f := range figs {
		want := i + 4
		if want >= 21 {
			want++ // Experiment 21 is retired
		}
		if f.ID != want {
			t.Fatalf("figure[%d].ID = %d, want %d", i, f.ID, want)
		}
		if f.Title == "" {
			t.Fatalf("figure %d has no title", f.ID)
		}
	}
}

func TestRunUnknownFigure(t *testing.T) {
	if _, err := Run(99, tiny()); err == nil {
		t.Fatal("Run(99) succeeded")
	}
}

// TestAllFiguresProduceTables runs every experiment at miniature scale with
// verification on: the integration test of the whole reproduction pipeline.
func TestAllFiguresProduceTables(t *testing.T) {
	if testing.Short() {
		t.Skip("figures are integration-scale")
	}
	for _, f := range Figures() {
		f := f
		t.Run(f.Title, func(t *testing.T) {
			tb, err := Run(f.ID, tiny())
			if err != nil {
				t.Fatalf("figure %d: %v", f.ID, err)
			}
			if tb.Rows() == 0 {
				t.Fatalf("figure %d produced no rows", f.ID)
			}
			out := tb.String()
			if !strings.Contains(out, "Figure") && !strings.Contains(out, "Experiment") {
				t.Fatalf("figure %d table missing caption:\n%s", f.ID, out)
			}
		})
	}
}

func TestFig4RowShape(t *testing.T) {
	tb, err := Run(4, tiny())
	if err != nil {
		t.Fatal(err)
	}
	// 13 irregular benchmarks + the geomean row.
	if tb.Rows() != 14 {
		t.Fatalf("fig4 rows = %d, want 14:\n%s", tb.Rows(), tb.String())
	}
	if tb.Cell(tb.Rows()-1, 0) != "geomean" {
		t.Fatalf("fig4 last row = %q, want geomean", tb.Cell(tb.Rows()-1, 0))
	}
}

func TestFig13DetectionColumns(t *testing.T) {
	tb, err := Run(13, tiny())
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 8 { // the TPAL set
		t.Fatalf("fig13 rows = %d, want 8", tb.Rows())
	}
}

func TestOverheadPct(t *testing.T) {
	if p := overheadPct(100, 150); p != 50 {
		t.Fatalf("overheadPct = %v, want 50", p)
	}
	if p := overheadPct(200, 190); p != -5 {
		t.Fatalf("overheadPct = %v, want -5", p)
	}
}

func TestTimeItUsesMedianAfterWarmup(t *testing.T) {
	cfg := Config{Runs: 3}
	n := 0
	d := timeIt(cfg, func() {
		n++
		time.Sleep(time.Duration(n) * time.Millisecond)
	})
	if n != 4 { // one warmup + three timed runs
		t.Fatalf("fn ran %d times, want 4", n)
	}
	if d < 2*time.Millisecond || d > 10*time.Millisecond {
		t.Fatalf("median = %v, want ≈3ms (median of 2,3,4ms)", d)
	}
	_ = stats.Median
}
