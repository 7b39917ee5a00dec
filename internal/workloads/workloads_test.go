package workloads

import (
	"testing"

	"hbc/internal/core"
	"hbc/internal/omp"
	"hbc/internal/pulse"
	"hbc/internal/sched"
)

// testScale keeps inputs tiny so the full matrix of engines × benchmarks
// runs in seconds.
const testScale = 0.02

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"bfs", "cc", "cf", "cg", "floyd-warshall", "kmeans",
		"mandelbrot", "mandelbulb", "plus-reduce-array", "pr", "pr-delta",
		"spmv-arrowhead", "spmv-powerlaw", "spmv-powerlaw-reverse",
		"spmv-random", "srad", "sssp", "ttm", "ttv",
	}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("registry has %d entries %v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registry[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestSetsPartitionSensibly(t *testing.T) {
	if len(TPALSet()) != 8 {
		t.Fatalf("TPAL set = %v, want 8 benchmarks", TPALSet())
	}
	if len(ManualSet()) < 5 {
		t.Fatalf("manual set = %v, want >= 5", ManualSet())
	}
	irr, reg := Irregular(), RegularSet()
	// One registered input (spmv-powerlaw-reverse) is Aux: used only by
	// Fig. 12, excluded from both sets.
	if len(irr)+len(reg) != len(Names())-1 {
		t.Fatalf("irregular(%d) + regular(%d) != all(%d) - 1 aux", len(irr), len(reg), len(Names()))
	}
	if len(irr) != 13 {
		t.Fatalf("irregular = %v, want the paper's 13-benchmark Fig. 4 set", irr)
	}
}

func TestUnknownBenchmark(t *testing.T) {
	if _, err := New("nope"); err == nil {
		t.Fatal("New accepted unknown name")
	}
}

// TestSerialSelfConsistent: Serial followed by Verify must always pass
// (Verify's oracle is an independent recomputation).
func TestSerialSelfConsistent(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			w, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			w.Prepare(testScale)
			w.Serial()
			if err := w.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestOMPVariantsMatchOracle(t *testing.T) {
	pool := omp.NewPool(3)
	defer pool.Close()
	cfgs := []OMPConfig{
		{Sched: omp.Dynamic, Chunk: 1},
		{Sched: omp.Dynamic, Chunk: 8},
		{Sched: omp.Static},
		{Sched: omp.Guided, Chunk: 2},
	}
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			w, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			w.Prepare(testScale)
			for _, cfg := range cfgs {
				w.OMP(pool, cfg)
				if err := w.Verify(); err != nil {
					t.Fatalf("%+v: %v", cfg, err)
				}
			}
		})
	}
}

func TestOMPNestedMatchesOracle(t *testing.T) {
	// Nested mode is slow by design; a couple of representative benchmarks
	// suffice to prove correctness.
	pool := omp.NewPool(2)
	defer pool.Close()
	for _, name := range []string{"spmv-arrowhead", "mandelbrot", "ttv", "pr"} {
		w, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		w.Prepare(0.01)
		w.OMP(pool, OMPConfig{Sched: omp.Dynamic, Chunk: 1, Nested: true})
		if err := w.Verify(); err != nil {
			t.Fatalf("%s nested: %v", name, err)
		}
	}
}

// runHBC binds and runs a workload under the given source and options.
func runHBC(t *testing.T, name string, workers int, src pulse.Source, opts core.Options) {
	t.Helper()
	w, err := New(name)
	if err != nil {
		t.Fatal(err)
	}
	w.Prepare(testScale)
	team := sched.NewTeam(workers)
	defer team.Close()
	d := NewDriver(team, src, core.DefaultHeartbeat, opts)
	defer d.Close()
	if err := w.BindHBC(d); err != nil {
		t.Fatal(err)
	}
	w.RunHBC(d)
	if err := w.Verify(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

func TestHBCNoHeartbeatsMatchesOracle(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			runHBC(t, name, 2, pulse.NewNever(), core.Options{})
		})
	}
}

func TestHBCPromoteAggressivelyMatchesOracle(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			runHBC(t, name, 3, pulse.NewEveryN(3),
				core.Options{StaticChunk: 4})
		})
	}
}

func TestHBCTimerMatchesOracle(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			runHBC(t, name, 2, pulse.NewTimer(), core.Options{})
		})
	}
}

func TestHBCTPALModeMatchesOracle(t *testing.T) {
	for _, name := range TPALSet() {
		name := name
		t.Run(name, func(t *testing.T) {
			runHBC(t, name, 2, pulse.NewEveryN(5), core.Options{
				Mode:        core.ModeTPAL,
				StaticChunk: 8,
			})
		})
	}
}

func TestMandelbrotInputSwitching(t *testing.T) {
	w, _ := New("mandelbrot")
	mb := w.(*mandelWork)
	mb.Prepare(0.02)
	mb.UseHighLatencyInput()
	mb.Serial()
	if err := mb.Verify(); err != nil {
		t.Fatal(err)
	}
	// Inside the set every pixel must hit maxIter.
	for _, v := range mb.out[:100] {
		if v != int32(mb.maxIter) {
			t.Fatalf("high-latency input escaped early: %d", v)
		}
	}
	mb.UseLowLatencyInput()
	mb.Serial()
	if err := mb.Verify(); err != nil {
		t.Fatal(err)
	}
	// Far outside the set pixels escape immediately.
	if mb.out[0] > 3 {
		t.Fatalf("low-latency corner pixel took %d iterations", mb.out[0])
	}
}

func TestDriverStatsAggregation(t *testing.T) {
	w, _ := New("spmv-powerlaw")
	w.Prepare(testScale)
	team := sched.NewTeam(2)
	defer team.Close()
	d := NewDriver(team, pulse.NewEveryN(4), core.DefaultHeartbeat,
		core.Options{StaticChunk: 2})
	defer d.Close()
	if err := w.BindHBC(d); err != nil {
		t.Fatal(err)
	}
	w.RunHBC(d)
	promos, byLevel := d.Stats()
	if promos == 0 {
		t.Fatal("no promotions recorded")
	}
	var sum int64
	for _, v := range byLevel {
		sum += v
	}
	if sum != promos {
		t.Fatalf("byLevel %v does not sum to %d", byLevel, promos)
	}
}

// TestStaticDriverMatchesOracle runs every benchmark under the static
// scheduler — the paper's §6.8 complementary policy — and verifies it.
func TestStaticDriverMatchesOracle(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			w, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			w.Prepare(testScale)
			team := sched.NewTeam(3)
			defer team.Close()
			d := NewStaticDriver(team)
			defer d.Close()
			if err := w.BindHBC(d); err != nil {
				t.Fatal(err)
			}
			w.RunHBC(d)
			if err := w.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
