package core

import (
	"fmt"
	"strings"
	"testing"

	"hbc/internal/pulse"
	"hbc/internal/sched"
)

// --- promotion policies ---------------------------------------------------

func TestPoliciesAllCorrect(t *testing.T) {
	for _, pol := range []Policy{PolicyOuterFirst, PolicyInnerFirst, PolicySelfOnly} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			env := newCSR(90)
			p := MustCompile(csrNest(), Options{
				Policy:      pol,
				StaticChunk: 2,
			})
			runWith(t, p, pulse.NewEveryN(3), 3, env)
			int64sEqual(t, env.out, env.serial(), "policy "+pol.String())
		})
	}
}

func TestPolicyLevelDistributions(t *testing.T) {
	run := func(pol Policy) []int64 {
		env := newCSR(400)
		p := MustCompile(csrNest(), Options{
			Policy:      pol,
			StaticChunk: 1,
		})
		team := sched.NewTeam(2)
		defer team.Close()
		x := NewExec(p, team, pulse.NewEveryN(4), DefaultHeartbeat, env)
		x.Start()
		defer x.Stop()
		x.Run()
		int64sEqual(t, env.out, env.serial(), "dist "+pol.String())
		return x.Stats().ByLevel()
	}
	outer := run(PolicyOuterFirst)
	selfOnly := run(PolicySelfOnly)
	// Outer-first should put the bulk of promotions at level 0; self-only
	// can never split an ancestor from a leaf poll... level 0 splits happen
	// only when the row loop itself polls at its latch. The inner (col)
	// loop splits dominate under self-only.
	if outer[0] == 0 {
		t.Fatalf("outer-first produced no level-0 promotions: %v", outer)
	}
	if selfOnly[1] == 0 {
		t.Fatalf("self-only produced no level-1 promotions: %v", selfOnly)
	}
	if float64(selfOnly[1])/float64(selfOnly[0]+selfOnly[1]+1) <
		float64(outer[1])/float64(outer[0]+outer[1]+1) {
		t.Fatalf("self-only (%v) should skew deeper than outer-first (%v)", selfOnly, outer)
	}
}

func TestPolicyStrings(t *testing.T) {
	if PolicyOuterFirst.String() != "outer-first" ||
		PolicyInnerFirst.String() != "inner-first" ||
		PolicySelfOnly.String() != "self-only" {
		t.Fatal("bad policy names")
	}
}

// --- static scheduler --------------------------------------------------------

func TestRunStaticMatchesOracle(t *testing.T) {
	env := newCSR(123)
	p := MustCompile(csrNest(), Options{})
	team := sched.NewTeam(4)
	defer team.Close()
	p.RunStatic(team, env)
	int64sEqual(t, env.out, env.serial(), "static spmv")
}

func TestRunStaticReduction(t *testing.T) {
	data := make([]int64, 10001) // not divisible by the team size
	var want int64
	for i := range data {
		data[i] = int64(i % 7)
		want += data[i]
	}
	p := MustCompile(sumNest("static-sum"), Options{})
	team := sched.NewTeam(3)
	defer team.Close()
	acc := p.RunStatic(team, &sumEnv{data: data})
	if got := *acc.(*int64); got != want {
		t.Fatalf("static sum = %d, want %d", got, want)
	}
}

func TestRunStaticDegeneratesToSeq(t *testing.T) {
	// Fewer iterations than workers: single-block fallback.
	env := newCSR(1)
	p := MustCompile(csrNest(), Options{})
	team := sched.NewTeam(8)
	defer team.Close()
	p.RunStatic(team, env)
	int64sEqual(t, env.out, env.serial(), "static tiny")
}

func TestRunStaticThreeLevel(t *testing.T) {
	p := MustCompile(threeNest(), Options{})
	team := sched.NewTeam(3)
	defer team.Close()
	acc := p.RunStatic(team, &threeEnv{n: 11})
	if got := *acc.(*int64); got != threeSerial(11) {
		t.Fatalf("static three = %d, want %d", got, threeSerial(11))
	}
}

// --- panic propagation ---------------------------------------------------------

func TestBodyPanicSurfacesAtRun(t *testing.T) {
	nest := sumNest("panicky")
	nest.Root.Body = func(_ any, _ []int64, lo, hi int64, _ any) {
		panic("kernel exploded")
	}
	p := MustCompile(nest, Options{})
	team := sched.NewTeam(2)
	defer team.Close()
	x := NewExec(p, team, pulse.NewNever(), DefaultHeartbeat, &sumEnv{data: make([]int64, 10)})
	x.Start()
	defer x.Stop()
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("panic did not propagate to Run caller")
		}
		if !strings.Contains(toString(v), "kernel exploded") {
			t.Fatalf("unexpected panic value %v", v)
		}
		pe, ok := v.(*PanicError)
		if !ok {
			t.Fatalf("panic value is %T, want *PanicError", v)
		}
		if pe.Value != "kernel exploded" || pe.Loop != (LoopID{}) {
			t.Fatalf("PanicError = %+v, want original value and loop (0,0)", pe)
		}
	}()
	x.Run()
}

func TestPanicInPromotedTaskSurfaces(t *testing.T) {
	// The panic fires in a forked slice task; it must travel through the
	// promotion join back to the root caller.
	nest := sumNest("panicky2")
	nest.Root.Body = func(_ any, _ []int64, lo, hi int64, acc any) {
		if lo > 400 {
			panic("late failure")
		}
	}
	p := MustCompile(nest, Options{StaticChunk: 16})
	team := sched.NewTeam(2)
	defer team.Close()
	x := NewExec(p, team, pulse.NewAlways(), DefaultHeartbeat, &sumEnv{data: make([]int64, 1000)})
	x.Start()
	defer x.Stop()
	defer func() {
		if recover() == nil {
			t.Fatal("promoted-task panic did not propagate")
		}
	}()
	x.Run()
}

func toString(v any) string {
	switch s := v.(type) {
	case string:
		return s
	case error:
		return s.Error()
	}
	return fmt.Sprint(v)
}
