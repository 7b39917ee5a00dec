package analysis

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hbc/internal/frontend"
)

var update = flag.Bool("update", false, "rewrite golden files")

func factsFor(t *testing.T, file string) *Facts {
	t.Helper()
	path := filepath.Join("..", "..", "kernels", file)
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	k, err := frontend.ParseFile(file, string(src))
	if err != nil {
		t.Fatal(err)
	}
	return BuildFacts(file, k)
}

// TestPowersumFactsGolden pins the full fact record for powersum — the
// acceptance kernel: impure (writes rowsum), a symbolic cost on the
// data-varying inner loop, and a verdict for every subscript.
func TestPowersumFactsGolden(t *testing.T) {
	f := factsFor(t, "powersum.hbk")
	got, err := f.JSON()
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", "powersum.facts.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("facts drifted from golden (run `go test ./internal/analysis -run Golden -update`):\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestPowersumFactsShape(t *testing.T) {
	f := factsFor(t, "powersum.hbk")
	if f.Pure {
		t.Fatal("powersum writes rowsum; must be impure")
	}
	if got := f.Effects.Writes; len(got) != 1 || got[0] != "rowsum" {
		t.Fatalf("writes = %v, want [rowsum]", got)
	}
	if len(f.Loops) != 2 {
		t.Fatalf("want 2 loops, got %d", len(f.Loops))
	}
	outer, inner := f.Loops[0], f.Loops[1]
	if !outer.Trip.Known || outer.Trip.Val != 8000 {
		t.Fatalf("outer trip = %+v, want known 8000", outer.Trip)
	}
	if inner.Trip.Known || !strings.Contains(inner.Trip.Expr, "A.nnz / A.rows") {
		t.Fatalf("inner trip = %+v, want symbolic nnz/rows", inner.Trip)
	}
	if inner.Variance != VarianceData {
		t.Fatalf("inner variance = %q, want data", inner.Variance)
	}
	if !inner.Leaf || inner.ChunkHint <= 0 {
		t.Fatalf("inner leaf hint = %+v", inner)
	}
	if f.LeafChunkHint() != inner.ChunkHint {
		t.Fatalf("LeafChunkHint = %d, want %d", f.LeafChunkHint(), inner.ChunkHint)
	}
	// Every subscript in the kernel gets a verdict: rowPtr[i], rowPtr[i+1],
	// val[j], rowsum[i].
	if len(f.Bounds) != 4 {
		t.Fatalf("want 4 bounds facts, got %d: %+v", len(f.Bounds), f.Bounds)
	}
	for _, b := range f.Bounds {
		switch {
		case b.Array == "A.val":
			if b.Verdict != BoundsUnknown {
				t.Fatalf("A.val[j] = %+v, want unknown (j's range is dynamic)", b)
			}
		default:
			if b.Verdict != BoundsProved {
				t.Fatalf("%s[%s] = %+v, want proved", b.Array, b.Subscript, b)
			}
		}
	}
	if !f.ProvenInBounds(13, "rowsum") {
		t.Fatal("rowsum[i] at line 13 should be proven in-bounds")
	}
	if f.ProvenInBounds(11, "A.val") {
		t.Fatal("A.val[j] must not be proven")
	}
}

// TestDotnormPure: the pure fixture — no writes, only a root reduction —
// must be proven pure.
func TestDotnormPure(t *testing.T) {
	f := factsFor(t, "dotnorm.hbk")
	if !f.Pure {
		t.Fatalf("dotnorm must be pure: %+v", f.Effects)
	}
	if len(f.Effects.Writes) != 0 || f.Effects.Reductions != 1 {
		t.Fatalf("effects = %+v", f.Effects)
	}
	if len(f.Loops) != 1 || !f.Loops[0].Leaf || f.Loops[0].ChunkHint <= 0 {
		t.Fatalf("loops = %+v", f.Loops)
	}
	for _, b := range f.Bounds {
		if b.Verdict != BoundsProved {
			t.Fatalf("v[i] should be proved: %+v", b)
		}
	}
}

// TestEscapeVariance: the serial escape iteration makes the leaf's cost
// control-varying, and its high per-pixel cost drives the chunk hint to 1.
func TestEscapeVariance(t *testing.T) {
	f := factsFor(t, "escape.hbk")
	var leaf *LoopFacts
	for i := range f.Loops {
		if f.Loops[i].Parallel && f.Loops[i].Leaf {
			leaf = &f.Loops[i]
		}
	}
	if leaf == nil {
		t.Fatal("no parallel leaf found")
	}
	if leaf.Variance != VarianceControl {
		t.Fatalf("leaf variance = %q, want control (escape loop breaks)", leaf.Variance)
	}
	if !leaf.IterCost.Known {
		t.Fatalf("leaf iter cost should fold (maxIter is a header constant): %+v", leaf.IterCost)
	}
	if leaf.ChunkHint != 1 {
		t.Fatalf("chunk hint = %d, want 1 for a ~%d-op pixel", leaf.ChunkHint, leaf.IterCost.Val)
	}
}

// TestStencilFacts: a fully regular kernel — uniform leaf variance, exact
// costs, and bounds that are proved except at the (branch-guarded) edges.
func TestStencilFacts(t *testing.T) {
	f := factsFor(t, "stencil.hbk")
	if f.Pure {
		t.Fatal("stencil writes out")
	}
	leaf := f.Loops[0]
	if leaf.Variance != VarianceUniform {
		t.Fatalf("variance = %q, want uniform", leaf.Variance)
	}
	if !leaf.TotalCost.Known {
		t.Fatalf("total cost should fold: %+v", leaf.TotalCost)
	}
	var proved, unknown int
	for _, b := range f.Bounds {
		switch b.Verdict {
		case BoundsProved:
			proved++
		case BoundsUnknown:
			unknown++
			if !strings.Contains(b.Reason, "may") {
				t.Fatalf("edge access reason = %+v", b)
			}
		default:
			t.Fatalf("no stencil access is provably out of bounds: %+v", b)
		}
	}
	// in[i], out[i] prove; in[i-1] and in[i+1] stay unknown because the
	// guarding branch conditions are not tracked.
	if proved == 0 || unknown == 0 {
		t.Fatalf("want a mix of proved and unknown: proved=%d unknown=%d", proved, unknown)
	}
}

// TestNonAffineChainFixture pins the loop-chain rendering in the
// non-affine warning (kernels/bad/nonaffine.hbk regression).
func TestNonAffineChainFixture(t *testing.T) {
	path := filepath.Join("..", "..", "kernels", "bad", "nonaffine.hbk")
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	k, err := frontend.ParseFile(path, string(src))
	if err != nil {
		t.Fatal(err)
	}
	diags := Vet(path, k)
	for _, d := range diags {
		if d.Rule == RuleNonAffine {
			if !strings.Contains(d.Msg, "(in loop i, in loop j)") {
				t.Fatalf("warning must name the loop chain: %q", d.Msg)
			}
			return
		}
	}
	t.Fatalf("no non-affine warning reported: %v", diags)
}

// TestFactsOnRejectedKernel: BuildFacts never fails — a kernel the vetter
// rejects still yields a conservative record.
func TestFactsOnRejectedKernel(t *testing.T) {
	k, err := frontend.Parse(`
kernel bad
let n = 4
array out float[n]

parallel for i = 0 .. n {
    out[0] = 1.0
}
`)
	if err != nil {
		t.Fatal(err)
	}
	f := BuildFacts("", k)
	if f.Pure {
		t.Fatal("writes out: impure")
	}
	if len(f.Loops) != 1 || len(f.Bounds) != 1 {
		t.Fatalf("facts = %+v", f)
	}
	if f.Bounds[0].Verdict != BoundsProved {
		t.Fatalf("out[0] is in range even though the kernel races: %+v", f.Bounds[0])
	}
}

func TestDiagSortDeterministic(t *testing.T) {
	ds := []Diag{
		{File: "b.hbk", Line: 1, Rule: "zz", Severity: Warn, Msg: "m"},
		{File: "a.hbk", Line: 9, Rule: "aa", Severity: Warn, Msg: "m"},
		{File: "a.hbk", Line: 2, Col: 7, Rule: "aa", Severity: Warn, Msg: "m"},
		{File: "a.hbk", Line: 2, Col: 3, Rule: "bb", Severity: Err, Msg: "m"},
		{File: "a.hbk", Line: 2, Col: 3, Rule: "aa", Severity: Warn, Msg: "m"},
	}
	sortDiags(ds)
	got := make([]string, len(ds))
	for i, d := range ds {
		got[i] = d.String()
	}
	want := []string{
		"a.hbk:2:3: error: m [bb]",
		"a.hbk:2:3: warning: m [aa]",
		"a.hbk:2:7: warning: m [aa]",
		"a.hbk:9: warning: m [aa]",
		"b.hbk:1: warning: m [zz]",
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order[%d] = %q, want %q\nall: %v", i, got[i], want[i], got)
		}
	}
}
