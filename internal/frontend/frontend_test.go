package frontend

import (
	"strings"
	"testing"

	"hbc/internal/core"
	"hbc/internal/loopnest"
	"hbc/internal/pulse"
	"hbc/internal/sched"
)

// compileSrc parses and compiles kernel source, failing the test on error.
func compileSrc(t *testing.T, src string) *Compiled {
	t.Helper()
	k, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(k)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// runHeartbeat executes a compiled kernel under aggressive promotion.
func runHeartbeat(t *testing.T, c *Compiled, workers int) {
	t.Helper()
	p, err := core.Compile(c.Nest, core.Options{StaticChunk: 3})
	if err != nil {
		t.Fatal(err)
	}
	team := sched.NewTeam(workers)
	defer team.Close()
	x := core.NewExec(p, team, pulse.NewEveryN(3), core.DefaultHeartbeat, c.Env)
	x.Start()
	defer x.Stop()
	x.Run()
}

// --- lexer ----------------------------------------------------------------------

func TestLexBasics(t *testing.T) {
	toks, err := lex("let n = 10 # comment\nparallel for i = 0 .. n {\n}\n")
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tk := range toks {
		if tk.kind == tokIdent || tk.kind == tokSymbol || tk.kind == tokInt {
			texts = append(texts, tk.text)
		}
	}
	want := []string{"let", "n", "=", "10", "parallel", "for", "i", "=", "0", "..", "n", "{", "}"}
	if strings.Join(texts, " ") != strings.Join(want, " ") {
		t.Fatalf("tokens = %v, want %v", texts, want)
	}
}

func TestLexDottedIdent(t *testing.T) {
	toks, err := lex("A.rowPtr[i]")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].kind != tokIdent || toks[0].text != "A.rowPtr" {
		t.Fatalf("dotted ident = %v", toks[0])
	}
}

func TestLexFloatVsRange(t *testing.T) {
	toks, err := lex("0 .. 2 1.5")
	if err != nil {
		t.Fatal(err)
	}
	if toks[1].text != ".." {
		t.Fatalf("range token = %v", toks[1])
	}
	if toks[3].kind != tokFloat || toks[3].text != "1.5" {
		t.Fatalf("float token = %v", toks[3])
	}
}

func TestLexRejectsGarbage(t *testing.T) {
	if _, err := lex("let a = @"); err == nil {
		t.Fatal("lexer accepted @")
	}
}

// --- parse errors ------------------------------------------------------------------

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"no kernel", "let n = 1\n", `expected "kernel"`},
		{"serial top", "kernel k\nfor i = 0 .. 3 {\n}\n", "must be `parallel for`"},
		{"bad array type", "kernel k\narray x bool[3]\nparallel for i = 0 .. 1 {\n}\n", "int or float"},
		{"unterminated", "kernel k\nparallel for i = 0 .. 1 {\n", "unterminated"},
		{"trailing", "kernel k\nparallel for i = 0 .. 1 {\n}\nlet z = 1\n", "unexpected"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want contains %q", c.name, err, c.want)
		}
	}
}

// --- compile errors -----------------------------------------------------------------

func TestCompileErrors(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"undefined", "kernel k\nparallel for i = 0 .. n {\n}\n", "undefined"},
		{"redecl", "kernel k\nlet n = 1\nlet n = 2\nparallel for i = 0 .. n {\n}\n", "redeclared"},
		{"sum init", "kernel k\narray o float[4]\nparallel for i = 0 .. 4 {\nsum s = 1.0\nparallel for j = 0 .. 2 reduce(s) {\ns += 1.0\n}\no[i] = s\n}\n", "identity"},
		{"reduce unmatched", "kernel k\narray o float[4]\nparallel for i = 0 .. 4 {\nparallel for j = 0 .. 2 reduce(s) {\n}\no[i] = 1.0\n}\n", "does not match"},
		{"two parallel", "kernel k\narray o float[4]\nparallel for i = 0 .. 4 {\nparallel for j = 0 .. 2 {\no[i] = 1.0\n}\nparallel for q = 0 .. 2 {\no[i] = 1.0\n}\n}\n", "at most one"},
		{"assign loopvar", "kernel k\narray o int[4]\nparallel for i = 0 .. 4 {\ni = 2\n}\n", "read-only"},
		{"acc plain assign", "kernel k\narray o float[4]\nparallel for i = 0 .. 4 {\nsum s = 0.0\nparallel for j = 0 .. 2 reduce(s) {\ns = 1.0\n}\no[i] = s\n}\n", "+="},
		{"float mod", "kernel k\narray o float[4]\nparallel for i = 0 .. 4 {\no[i] = 1.5 % 2.0\n}\n", "integer operands"},
		{"bad generator", "kernel k\nmatrix A = magic(3)\nparallel for i = 0 .. A.rows {\n}\n", "unknown matrix generator"},
	}
	for _, c := range cases {
		k, err := Parse(c.src)
		if err != nil {
			t.Errorf("%s: parse failed: %v", c.name, err)
			continue
		}
		_, err = Compile(k)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want contains %q", c.name, err, c.want)
		}
	}
}

// --- end-to-end kernels -----------------------------------------------------------

const squaresSrc = `
kernel squares
let n = 100
array out int[n]

parallel for i = 0 .. n {
    out[i] = i * i
}
`

func TestSquaresKernel(t *testing.T) {
	c := compileSrc(t, squaresSrc)
	c.Nest.Name = "squares"
	// Serial elision first.
	p, err := core.Compile(c.Nest, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p.RunSeq(c.Env)
	out, _ := c.Env.IntArray("out")
	for i, v := range out {
		if v != int64(i*i) {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
	// Heartbeat execution from a clean state.
	c.Env.Reset()
	runHeartbeat(t, c, 3)
	for i, v := range out {
		if v != int64(i*i) {
			t.Fatalf("heartbeat out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

const spmvSrc = `
kernel spmv
let n = 64
matrix A = arrowhead(n)
array x float[n] = 1.0
array out float[n]

parallel for i = 0 .. A.rows {
    sum s = 0.0
    parallel for j = A.rowPtr[i] .. A.rowPtr[i+1] reduce(s) {
        s += A.val[j] * x[A.colInd[j]]
    }
    out[i] = s
}
`

func TestSpmvKernel(t *testing.T) {
	c := compileSrc(t, spmvSrc)
	if c.Nest.Depth() != 2 {
		t.Fatalf("depth = %d, want 2", c.Nest.Depth())
	}
	runHeartbeat(t, c, 2)
	out, _ := c.Env.FloatArray("out")
	// Arrowhead with x = ones: row 0 sums n ones; other rows sum 2.
	if out[0] != 64 {
		t.Fatalf("out[0] = %g, want 64", out[0])
	}
	for i := 1; i < 64; i++ {
		if out[i] != 2 {
			t.Fatalf("out[%d] = %g, want 2", i, out[i])
		}
	}
}

const escapeSrc = `
kernel escape
let n = 50
let maxIter = 30
array out int[n]

parallel for i = 0 .. n {
    # A toy escape-time iteration with a serial loop, locals, if and break:
    # v doubles each step starting from i; count steps until v > 1000.
    let v = i
    let it = 0
    for k = 0 .. maxIter {
        if v > 1000 {
            break
        }
        v = v * 2 + 1
        it = it + 1
    }
    out[i] = it
}
`

func TestEscapeKernelSerialControlFlow(t *testing.T) {
	c := compileSrc(t, escapeSrc)
	runHeartbeat(t, c, 2)
	out, _ := c.Env.IntArray("out")
	// Oracle in Go.
	for i := int64(0); i < 50; i++ {
		v, it := i, int64(0)
		for k := 0; k < 30; k++ {
			if v > 1000 {
				break
			}
			v = v*2 + 1
			it++
		}
		if out[i] != it {
			t.Fatalf("out[%d] = %d, want %d", i, out[i], it)
		}
	}
}

const triSrc = `
kernel triangle
let n = 40
array out float[n]

parallel for i = 0 .. n {
    sum s = 0.0
    parallel for j = 0 .. i + 1 reduce(s) {
        s += 1.0 * j
    }
    out[i] = s + 0.5
}
`

func TestTriangularBoundsKernel(t *testing.T) {
	c := compileSrc(t, triSrc)
	runHeartbeat(t, c, 3)
	out, _ := c.Env.FloatArray("out")
	for i := int64(0); i < 40; i++ {
		want := float64(i*(i+1))/2 + 0.5
		if out[i] != want {
			t.Fatalf("out[%d] = %g, want %g", i, out[i], want)
		}
	}
}

func TestResetRestoresOutputs(t *testing.T) {
	c := compileSrc(t, squaresSrc)
	p, _ := core.Compile(c.Nest, core.Options{})
	p.RunSeq(c.Env)
	c.Env.Reset()
	out, _ := c.Env.IntArray("out")
	for i, v := range out {
		if v != 0 {
			t.Fatalf("Reset left out[%d] = %d", i, v)
		}
	}
	x, _ := compileSrc(t, spmvSrc).Env.FloatArray("x")
	_ = x
}

func TestEnvAccessors(t *testing.T) {
	c := compileSrc(t, spmvSrc)
	if v, ok := c.Env.Scalar("A.rows"); !ok || v != 64 {
		t.Fatalf("A.rows = %d,%v", v, ok)
	}
	if _, ok := c.Env.IntArray("A.rowPtr"); !ok {
		t.Fatal("A.rowPtr missing")
	}
	if _, ok := c.Env.FloatArray("A.val"); !ok {
		t.Fatal("A.val missing")
	}
	if _, ok := c.Env.Scalar("nope"); ok {
		t.Fatal("phantom scalar")
	}
}

// --- formatter ---------------------------------------------------------------

func TestFormatRoundTrip(t *testing.T) {
	for _, src := range []string{squaresSrc, spmvSrc, escapeSrc, triSrc} {
		k1, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		out1 := Format(k1)
		k2, err := Parse(out1)
		if err != nil {
			t.Fatalf("reparse failed: %v\nformatted:\n%s", err, out1)
		}
		out2 := Format(k2)
		if out1 != out2 {
			t.Fatalf("format not idempotent:\n--- first\n%s\n--- second\n%s", out1, out2)
		}
	}
}

// TestFormattedKernelExecutesIdentically compiles a kernel both from the
// original source and from its formatted rendition and compares outputs.
func TestFormattedKernelExecutesIdentically(t *testing.T) {
	orig := compileSrc(t, spmvSrc)
	k, _ := Parse(spmvSrc)
	re := compileSrc(t, Format(k))
	p1, _ := core.Compile(orig.Nest, core.Options{})
	p2, _ := core.Compile(re.Nest, core.Options{})
	p1.RunSeq(orig.Env)
	p2.RunSeq(re.Env)
	a, _ := orig.Env.FloatArray("out")
	b, _ := re.Env.FloatArray("out")
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("formatted kernel diverges at %d: %g vs %g", i, a[i], b[i])
		}
	}
}

func TestFormatExprPrecedence(t *testing.T) {
	k, err := Parse("kernel k\narray o int[8]\nparallel for i = 0 .. 8 {\no[i] = 1 + 2 * 3 - 4 / 2\n}\n")
	if err != nil {
		t.Fatal(err)
	}
	body := k.Root.Body[0].(*AssignStmt)
	got := FormatExpr(body.Value)
	// ((1 + (2 * 3)) - (4 / 2)) — multiplication binds tighter.
	if got != "((1 + (2 * 3)) - (4 / 2))" {
		t.Fatalf("FormatExpr = %s", got)
	}
}

// hooksSrc gives the root loop every hook — Bounds, Pre and Post — and its
// child Bounds and a reducing Body, each with array reads and writes.
const hooksSrc = `kernel hooks
let n = 8
array a float[n] = 1.0
array out float[n]

parallel for i = 0 .. n {
    out[i] = a[i] * 2.0
    sum s = 0.0
    parallel for j = 0 .. i + 1 reduce(s) {
        let t = a[j]
        s += t * t
    }
    out[i] = out[i] + s
}
`

// chunkRT is a SliceRT with a fixed chunk of 3 and no heartbeat or
// cancellation, serving the accumulator acc at every level.
type chunkRT struct {
	budget int64
	acc    *float64
}

func (r *chunkRT) Budget() *int64                { return &r.budget }
func (r *chunkRT) Chunk(int64) int64             { return 3 }
func (r *chunkRT) Poll() bool                    { return false }
func (r *chunkRT) Aborted() bool                 { return false }
func (r *chunkRT) Child(int) loopnest.SliceRT    { return r }
func (r *chunkRT) Acc(int) any                   { return r.acc }
func (r *chunkRT) Stop(int, int64, int64, int64) {}

// TestHooksAllocFree calls every hook and slice entry of a compiled nest
// directly, in the default and the checked build, and requires that a call
// allocates nothing: arrays are bound at Compile and frames come from the
// pool.
func TestHooksAllocFree(t *testing.T) {
	k, err := Parse(hooksSrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{{}, {CheckBounds: true}} {
		c, err := CompileWith(k, opts)
		if err != nil {
			t.Fatal(err)
		}
		root := c.Nest.Root
		child := root.Children[0]
		if root.Pre == nil || root.Post == nil {
			t.Fatal("root loop lost its Pre or Post hook")
		}
		idx := []int64{3}
		s := new(float64)
		children := []any{s}
		rt := &chunkRT{acc: s}
		var acc any = s
		hooks := map[string]func(){
			"root.Bounds":  func() { root.Bounds(c.Env, nil) },
			"root.Pre":     func() { root.Pre(c.Env, idx, nil) },
			"root.Post":    func() { root.Post(c.Env, idx, nil, children) },
			"child.Bounds": func() { child.Bounds(c.Env, idx) },
			"child.Body":   func() { child.Body(c.Env, idx, 0, 4, s) },
			"root.Slice": func() {
				for iv := int64(0); iv < 8; {
					iv = root.Slice(c.Env, nil, iv, 8, nil, rt)
				}
			},
			"child.Slice": func() {
				for iv := int64(0); iv < 4; {
					iv = child.Slice(c.Env, idx, iv, 4, acc, rt)
				}
			},
		}
		for name, call := range hooks {
			if n := testing.AllocsPerRun(100, call); n != 0 {
				t.Errorf("checked=%v: %s allocates %v objects per call, want 0", opts.CheckBounds, name, n)
			}
		}
	}
}
