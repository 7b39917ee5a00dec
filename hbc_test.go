package hbc

import (
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func testTeam(t *testing.T, n int) *Team {
	t.Helper()
	team := NewTeam(Workers(n), Heartbeat(50*time.Microsecond))
	t.Cleanup(team.Close)
	return team
}

func TestForCoversRangeExactlyOnce(t *testing.T) {
	team := testTeam(t, 4)
	const n = 100000
	marks := make([]int32, n)
	team.For(0, n, func(lo, hi int64) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&marks[i], 1)
		}
	})
	for i, m := range marks {
		if m != 1 {
			t.Fatalf("index %d visited %d times", i, m)
		}
	}
}

func TestForEmptyRange(t *testing.T) {
	team := testTeam(t, 2)
	called := false
	team.For(5, 5, func(lo, hi int64) { called = true })
	team.For(9, 3, func(lo, hi int64) { called = true })
	if called {
		t.Fatal("body called for empty range")
	}
}

func TestForReduceSum(t *testing.T) {
	team := testTeam(t, 3)
	const n = 200000
	acc := team.ForReduce(0, n, SumInt64(), func(lo, hi int64, acc any) {
		s := acc.(*int64)
		for i := lo; i < hi; i++ {
			*s += i
		}
	})
	want := int64(n) * (n - 1) / 2
	if got := *acc.(*int64); got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
}

func TestForReduceFloatVector(t *testing.T) {
	team := testTeam(t, 2)
	acc := team.ForReduce(0, 10000, VecSumFloat64(4), func(lo, hi int64, acc any) {
		v := acc.([]float64)
		for i := lo; i < hi; i++ {
			v[i%4]++
		}
	})
	v := acc.([]float64)
	if v[0] != 2500 || v[1] != 2500 || v[2] != 2500 || v[3] != 2500 {
		t.Fatalf("vec = %v, want all 2500", v)
	}
}

func TestFor2DCoversGrid(t *testing.T) {
	team := testTeam(t, 4)
	const r, c = 300, 200
	marks := make([]int32, r*c)
	team.For2D(0, r, 0, c, func(i, jlo, jhi int64) {
		for j := jlo; j < jhi; j++ {
			atomic.AddInt32(&marks[i*c+j], 1)
		}
	})
	for k, m := range marks {
		if m != 1 {
			t.Fatalf("cell %d visited %d times", k, m)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := Compile(&Nest{}, Config{}); err == nil {
		t.Fatal("Compile accepted nest without root")
	}
}

func TestRunnerReusableAndStatsExposed(t *testing.T) {
	team := testTeam(t, 2)
	var visits atomic.Int64
	nest := &Nest{
		Name: "reuse",
		Root: &Loop{
			Name:   "reuse",
			Bounds: RangeN(50000),
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
	if got := visits.Load(); got != 150000 {
		t.Fatalf("visited %d iterations, want 150000", got)
	}
	if r.PulseStats().Polls == 0 {
		t.Fatal("no polls recorded")
	}
	if len(r.Chunks(0)) != 1 {
		t.Fatalf("chunks = %v", r.Chunks(0))
	}
}

func TestTPALConfigRuns(t *testing.T) {
	team := testTeam(t, 2)
	nest := &Nest{
		Name: "tpal",
		Root: &Loop{
			Name:   "tpal",
			Bounds: RangeN(10000),
			Reduce: SumInt64(),
			Body: func(_ any, _ []int64, lo, hi int64, acc any) {
				*acc.(*int64) += hi - lo
			},
		},
	}
	prog := MustCompile(nest, Config{TPAL: true, StaticChunk: 32})
	r := team.Load(prog, nil)
	defer r.Close()
	if got := *r.Run().(*int64); got != 10000 {
		t.Fatalf("tpal sum = %d, want 10000", got)
	}
}

func TestSignalMechanismsAllCorrect(t *testing.T) {
	for _, sig := range []Signal{SignalPolling, SignalEpoch, SignalPing, SignalKernel} {
		team := NewTeam(Workers(2), Heartbeat(200*time.Microsecond), WithSignal(sig))
		var sum atomic.Int64
		team.For(0, 50000, func(lo, hi int64) {
			sum.Add(hi - lo)
		})
		team.Close()
		if got := sum.Load(); got != 50000 {
			t.Fatalf("%v: covered %d iterations, want 50000", sig, got)
		}
	}
}

func TestQuickForAnyRange(t *testing.T) {
	team := testTeam(t, 2)
	f := func(a, span uint16) bool {
		lo := int64(a)
		hi := lo + int64(span)%5000
		var count atomic.Int64
		team.For(lo, hi, func(a, b int64) { count.Add(b - a) })
		return count.Load() == hi-lo
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSignalStrings(t *testing.T) {
	names := map[Signal]string{
		SignalPolling: "polling", SignalEpoch: "epoch",
		SignalPing: "ping", SignalKernel: "kernel",
	}
	for s, want := range names {
		if s.String() != want {
			t.Fatalf("Signal(%d).String() = %q, want %q", s, s.String(), want)
		}
	}
}

func TestRunStaticPublicAPI(t *testing.T) {
	team := testTeam(t, 3)
	var sum atomic.Int64
	nest := &Nest{
		Name: "static",
		Root: &Loop{
			Name:   "static",
			Bounds: RangeN(100000),
			Body: func(_ any, _ []int64, lo, hi int64, _ any) {
				sum.Add(hi - lo)
			},
		},
	}
	prog := MustCompile(nest, Config{})
	prog.RunStatic(team, nil)
	if got := sum.Load(); got != 100000 {
		t.Fatalf("static covered %d iterations, want 100000", got)
	}
}

func TestPolicyAndBatchingConfigs(t *testing.T) {
	for _, cfg := range []Config{
		{Policy: InnerFirst},
		{Policy: SelfOnly},
	} {
		team := testTeam(t, 2)
		var sum atomic.Int64
		nest := &Nest{
			Name: "cfg",
			Root: &Loop{
				Name:   "outer",
				Bounds: RangeN(300),
				Children: []*Loop{{
					Name:   "inner",
					Bounds: RangeN(50),
					Body: func(_ any, _ []int64, lo, hi int64, _ any) {
						sum.Add(hi - lo)
					},
				}},
			},
		}
		prog := MustCompile(nest, cfg)
		r := team.Load(prog, nil)
		r.Run()
		r.Close()
		if got := sum.Load(); got != 300*50 {
			t.Fatalf("%+v: covered %d, want %d", cfg, got, 300*50)
		}
	}
}

func TestSchedStatsExposed(t *testing.T) {
	team := testTeam(t, 2)
	before := team.SchedStats()
	const n = 100000
	var sum atomic.Int64
	team.For(0, n, func(lo, hi int64) {
		for i := lo; i < hi; i++ {
			sum.Add(1)
		}
	})
	if sum.Load() != n {
		t.Fatalf("covered %d, want %d", sum.Load(), n)
	}
	d := team.SchedStats().Sub(before)
	if d.Spawned < 1 {
		t.Errorf("Spawned = %d, want >= 1 (the root task at minimum)", d.Spawned)
	}
	if d.Executed < 1 {
		t.Errorf("Executed = %d, want >= 1", d.Executed)
	}
	if d.Steals > 0 && d.AvgStealLatency() <= 0 {
		t.Errorf("steals recorded but AvgStealLatency = %v", d.AvgStealLatency())
	}
	if d.TaskPoolHits < 0 || d.TaskPoolMisses < 0 || d.LatchPoolHits < 0 || d.LatchPoolMisses < 0 {
		t.Errorf("negative pool delta: %+v", d)
	}
}
