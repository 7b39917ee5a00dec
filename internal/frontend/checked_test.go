package frontend

import (
	"context"
	"errors"
	"strings"
	"testing"

	"hbc/internal/core"
	"hbc/internal/pulse"
	"hbc/internal/sched"
)

// proveAll is a BoundsOracle that claims every subscript is safe — the
// shape of what analysis.Facts provides when all verdicts are "proved".
type proveAll struct{}

func (proveAll) ProvenInBounds(int, string) bool { return true }

const checkedSrc = `kernel sq
let n = 16
array a float[n] = 2.0
array out float[n] = 0.0

parallel for i = 0 .. n {
  out[i] = a[i] * a[i]
}
`

// TestCheckedBoundsCounters pins the guard accounting: checked mode guards
// every subscript (two reads of a[i] plus the out[i] write), an oracle
// exempts the ones it proves, and the default build guards nothing.
func TestCheckedBoundsCounters(t *testing.T) {
	k, err := Parse(checkedSrc)
	if err != nil {
		t.Fatal(err)
	}
	unchecked, err := Compile(k)
	if err != nil {
		t.Fatal(err)
	}
	if unchecked.CheckedAccesses != 0 || unchecked.ProvenAccesses != 0 {
		t.Fatalf("unchecked build: checked=%d proven=%d, want 0/0",
			unchecked.CheckedAccesses, unchecked.ProvenAccesses)
	}
	guarded, err := CompileWith(k, Options{CheckBounds: true})
	if err != nil {
		t.Fatal(err)
	}
	if guarded.CheckedAccesses != 3 || guarded.ProvenAccesses != 0 {
		t.Fatalf("checked build: checked=%d proven=%d, want 3/0",
			guarded.CheckedAccesses, guarded.ProvenAccesses)
	}
	proven, err := CompileWith(k, Options{CheckBounds: true, Oracle: proveAll{}})
	if err != nil {
		t.Fatal(err)
	}
	if proven.CheckedAccesses != 0 || proven.ProvenAccesses != 3 {
		t.Fatalf("oracle build: checked=%d proven=%d, want 0/3",
			proven.CheckedAccesses, proven.ProvenAccesses)
	}
}

// TestCheckedBoundsRunsClean confirms the guards are transparent on an
// in-bounds kernel: the checked build computes the same result.
func TestCheckedBoundsRunsClean(t *testing.T) {
	k, err := Parse(checkedSrc)
	if err != nil {
		t.Fatal(err)
	}
	c, err := CompileWith(k, Options{CheckBounds: true})
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Compile(c.Nest, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	team := sched.NewTeam(2)
	defer team.Close()
	x := core.NewExec(p, team, pulse.NewEveryN(3), core.DefaultHeartbeat, c.Env)
	x.Start()
	defer x.Stop()
	if _, err := x.RunCtx(context.Background()); err != nil {
		t.Fatalf("checked in-bounds run: %v", err)
	}
	out, ok := c.Env.FloatArray("out")
	if !ok {
		t.Fatal("missing out array")
	}
	for i, v := range out {
		if v != 4 {
			t.Fatalf("out[%d] = %v, want 4", i, v)
		}
	}
}

// TestCheckedBoundsCatchesOverrun compiles a kernel that walks past its
// array and checks the guard converts the fault into a diagnostic naming
// the array, index, and extent — not Go's anonymous slice panic.
func TestCheckedBoundsCatchesOverrun(t *testing.T) {
	src := `kernel oob
let n = 4
array a float[n] = 0.0

parallel for i = 0 .. 8 {
  a[i] = 1.0
}
`
	k, err := ParseFile("oob.hbk", src)
	if err != nil {
		t.Fatal(err)
	}
	c, err := CompileWith(k, Options{CheckBounds: true})
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Compile(c.Nest, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	team := sched.NewTeam(1)
	defer team.Close()
	x := core.NewExec(p, team, pulse.NewNever(), core.DefaultHeartbeat, c.Env)
	x.Start()
	defer x.Stop()
	_, err = x.RunCtx(context.Background())
	var pe *core.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("overrun run: err = %v, want *core.PanicError", err)
	}
	msg := pe.Error()
	if !strings.Contains(msg, "a[4] out of range [0, 4)") || !strings.Contains(msg, "oob.hbk:6") {
		t.Fatalf("guard diagnostic = %q, want array/index/extent and source position", msg)
	}
}

// TestCheckedBoundsInnerBoundOverrun overruns a subscript in an inner
// loop's bound, so the guard panics inside that loop's Bounds: the error
// names the inner loop and stops its Indices at the outer index, since the
// inner invocation being set up has no index yet.
func TestCheckedBoundsInnerBoundOverrun(t *testing.T) {
	src := `kernel innerbound
let n = 4
array lim int[n] = 3
array out float[18] = 0.0

parallel for i = 0 .. 6 {
  parallel for j = 0 .. lim[i] {
    out[i * 3 + j] = 1.0
  }
}
`
	k, err := ParseFile("innerbound.hbk", src)
	if err != nil {
		t.Fatal(err)
	}
	c, err := CompileWith(k, Options{CheckBounds: true})
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Compile(c.Nest, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	team := sched.NewTeam(1)
	defer team.Close()
	x := core.NewExec(p, team, pulse.NewNever(), core.DefaultHeartbeat, c.Env)
	x.Start()
	defer x.Stop()
	_, err = x.RunCtx(context.Background())
	var pe *core.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("overrun run: err = %v, want *core.PanicError", err)
	}
	if msg := pe.Error(); !strings.Contains(msg, "lim[4] out of range [0, 4)") || !strings.Contains(msg, "innerbound.hbk:7") {
		t.Fatalf("guard diagnostic = %q, want array/index/extent and source position", msg)
	}
	if pe.Loop != (core.LoopID{Level: 1, Index: 0}) || pe.LoopName != "j" {
		t.Fatalf("fault attributed to loop %v %q, want (1,0) \"j\"", pe.Loop, pe.LoopName)
	}
	if len(pe.Indices) != 1 || pe.Indices[0] != 4 {
		t.Fatalf("Indices = %v, want [4]", pe.Indices)
	}
}

// TestCheckedBoundsDeepLeafOverrun overruns a subscript in the body of a
// depth-2 leaf at its very last iteration: on one worker with no heartbeat,
// where the root's slice entry runs both loops below it inline, and at 2
// workers with a heartbeat at every poll, where the fault happens inside a
// forked slice. Either way the error names the leaf, the exact faulting
// indices, and a stack holding the guard that panicked.
func TestCheckedBoundsDeepLeafOverrun(t *testing.T) {
	src := `kernel deepleaf
let n = 6
array out float[n * n * n - 1] = 0.0

parallel for i = 0 .. n {
  parallel for j = 0 .. n {
    parallel for k = 0 .. n {
      out[(i * n + j) * n + k] = 1.0
    }
  }
}
`
	k, err := ParseFile("deepleaf.hbk", src)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		workers int
		src     func() *pulse.Manual
		forks   bool
	}{
		{"inline", 1, pulse.NewNever, false},
		{"forked", 2, pulse.NewAlways, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := CompileWith(k, Options{CheckBounds: true})
			if err != nil {
				t.Fatal(err)
			}
			p, err := core.Compile(c.Nest, core.Options{StaticChunk: 1})
			if err != nil {
				t.Fatal(err)
			}
			team := sched.NewTeam(tc.workers)
			defer team.Close()
			x := core.NewExec(p, team, tc.src(), core.DefaultHeartbeat, c.Env)
			x.Start()
			defer x.Stop()
			_, err = x.RunCtx(context.Background())
			var pe *core.PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("overrun run: err = %v, want *core.PanicError", err)
			}
			if msg := pe.Error(); !strings.Contains(msg, "out[215] out of range [0, 215)") || !strings.Contains(msg, "deepleaf.hbk:8") {
				t.Fatalf("guard diagnostic = %q, want array/index/extent and source position", msg)
			}
			if pe.Loop != (core.LoopID{Level: 2, Index: 0}) || pe.LoopName != "k" {
				t.Fatalf("fault attributed to loop %v %q, want (2,0) \"k\"", pe.Loop, pe.LoopName)
			}
			if len(pe.Indices) != 3 || pe.Indices[0] != 5 || pe.Indices[1] != 5 || pe.Indices[2] != 5 {
				t.Fatalf("Indices = %v, want [5 5 5]", pe.Indices)
			}
			if !strings.Contains(string(pe.Stack), "guardIdx") {
				t.Fatalf("Stack does not hold the faulting guard:\n%s", pe.Stack)
			}
			if forked := x.Stats().TasksForked() > 0; forked != tc.forks {
				t.Fatalf("slices forked: %v, want %v", forked, tc.forks)
			}
		})
	}
}
