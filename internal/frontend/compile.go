package frontend

import (
	"fmt"
	"sync"

	"hbc/internal/loopnest"
	"hbc/internal/matrix"
)

// Compiled is a kernel lowered to the loopnest IR plus its bound data
// environment — the front-end's output, ready for the heartbeat middle-end.
//
// Nest is bound to Env, as a generated kernel's Nest(env) is: its closures
// captured Env's arrays at Compile and ignore the env argument the runtime
// passes them, so run Nest over Env only. Every loop of Nest has its own
// Slice, as a generated kernel's loops do. Its closures may run
// concurrently on any number of workers; each slice entry or hook call
// takes a frame of its own from a pool shared by the Compiled's closures.
type Compiled struct {
	Kernel *Kernel
	Nest   *loopnest.Nest
	Env    *Env
	// CheckedAccesses and ProvenAccesses count array subscripts compiled
	// with and without a runtime range guard under Options.CheckBounds —
	// the visible effect of the bounds-safety proofs (both zero in the
	// default unchecked mode).
	CheckedAccesses int
	ProvenAccesses  int
}

// BoundsOracle exempts statically proven subscripts from runtime range
// guards in checked mode. analysis.Facts implements it.
type BoundsOracle interface {
	ProvenInBounds(line int, array string) bool
}

// Options tunes kernel compilation. The zero value is the default build:
// no runtime bounds guards (Go's own slice checks still apply, but panic
// without kernel source positions).
type Options struct {
	// CheckBounds compiles every array subscript with an explicit range
	// guard that panics with the kernel source position, array name, and
	// offending index — instead of a bare Go index panic pointing into the
	// interpreter.
	CheckBounds bool
	// Oracle, if set with CheckBounds, skips the guard on every access it
	// proves in bounds, so proven subscripts run exactly as in the default
	// mode.
	Oracle BoundsOracle
}

// Env holds the kernel's data: scalars, arrays, and which arrays are
// outputs (declared by the kernel rather than bound from a dataset). Arrays
// are created at Compile and never rebound — Reset refills them in place —
// which is what lets the compiled closures capture them.
type Env struct {
	scalars map[string]int64
	intArr  map[string][]int64
	fltArr  map[string][]float64
	// outputs lists declared arrays with their fill initializer for Reset.
	outputs []outputSpec
}

type outputSpec struct {
	name  string
	float bool
	init  float64
	fill  bool
}

// Scalar returns a bound integer scalar.
func (e *Env) Scalar(name string) (int64, bool) {
	v, ok := e.scalars[name]
	return v, ok
}

// FloatArray returns a bound float array (shared, not copied).
func (e *Env) FloatArray(name string) ([]float64, bool) {
	a, ok := e.fltArr[name]
	return a, ok
}

// IntArray returns a bound int array (shared, not copied).
func (e *Env) IntArray(name string) ([]int64, bool) {
	a, ok := e.intArr[name]
	return a, ok
}

// Reset restores every declared array to its initializer, so a Compiled can
// be re-run from a clean state.
func (e *Env) Reset() {
	for _, o := range e.outputs {
		if o.float {
			a := e.fltArr[o.name]
			for i := range a {
				a[i] = o.init
			}
		} else {
			a := e.intArr[o.name]
			for i := range a {
				a[i] = int64(o.init)
			}
		}
	}
}

// frame is the runtime evaluation context of compiled statements: loop
// variable slots (parallel and serial) and the innermost visible
// accumulator. level and setup record, for panic attribution, whose code a
// slice entry is running: the code of the loop at level, or its bounds when
// setup is set.
type frame struct {
	vars  []int64
	fvars []float64
	acc   *float64
	level int
	setup bool
}

// framePool hands every hook call (Bounds, Body, Pre, Post) and every slice
// entry a frame that call owns alone, so concurrent calls on different
// workers never share one. A slice entry holds its frame for every row it
// runs, its descendants' included. Its slot counts are set once Compile has
// seen every local.
type framePool struct {
	nVars, nFVars int
	// levelSlots[k] is the slot of the level-k parallel loop variable.
	levelSlots []int
	pool       sync.Pool
}

// get returns a frame for one call, with the loop variables idx in their
// slots and acc, when it is one, as the visible accumulator.
func (p *framePool) get(slots []int, idx []int64, acc any) *frame {
	fr, ok := p.pool.Get().(*frame)
	if !ok {
		fr = &frame{vars: make([]int64, p.nVars), fvars: make([]float64, p.nFVars)}
	}
	for lv := 0; lv < len(slots) && lv < len(idx); lv++ {
		fr.vars[slots[lv]] = idx[lv]
	}
	fr.acc, _ = acc.(*float64)
	return fr
}

// put clears fr, so the next call starts from a zeroed frame as a fresh one
// would, and returns it to the pool. A call that panics never gets here; its
// frame is dropped.
func (p *framePool) put(fr *frame) {
	clear(fr.vars)
	clear(fr.fvars)
	fr.acc = nil
	p.pool.Put(fr)
}

// sliceFn is a loop's slice task over a frame that holds the enclosing
// indices and the visible accumulator: it runs iterations [iv, hi),
// spending the budget r it is passed, and returns the next unstarted
// iteration and the budget left — the shape of the emitted sliceTaskNestK.
type sliceFn func(fr *frame, iv, hi, r int64, rt loopnest.SliceRT) (int64, int64)

// entry makes the Slice of the loop at level from its frame-level run: one
// frame per entry, filled from idx and acc, with R read from rt once and
// written back on return.
func (p *framePool) entry(run sliceFn, slots []int, level int) loopnest.Slice {
	return func(_ any, idx []int64, iv, hi int64, acc any, rt loopnest.SliceRT) int64 {
		fr := p.get(slots, idx, acc)
		fr.level, fr.setup = level, false
		defer p.fault(fr)
		b := rt.Budget()
		iv, *b = run(fr, iv, hi, *b, rt)
		p.put(fr)
		return iv
	}
}

// fault, deferred by a slice entry, re-raises a panic in the entry's rows
// as a *loopnest.Fault naming the level whose code was running, with the
// frame's loop indices up to it.
func (p *framePool) fault(fr *frame) {
	v := recover()
	if v == nil {
		return
	}
	n := fr.level + 1
	if fr.setup {
		n--
	}
	idx := make([]int64, n)
	for lv := range idx {
		idx[lv] = fr.vars[p.levelSlots[lv]]
	}
	panic(&loopnest.Fault{Level: fr.level, Indices: idx, Value: v})
}

// compile-time symbol information.
type symKind int

const (
	symScalar symKind = iota // immutable int scalar
	symIntArr
	symFltArr
	symVar      // loop variable (parallel or serial), slot in frame.vars
	symIntLocal // mutable int local, slot in frame.vars
	symFltLocal // mutable float local, slot in frame.fvars
	symAcc      // the visible float accumulator
)

type sym struct {
	kind symKind
	slot int
	val  int64 // for symScalar
}

// compiler carries compilation state.
type compiler struct {
	file   string // kernel source file, for file:line diagnostics
	env    *Env
	syms   map[string]sym
	nVars  int // int slots: loop variables and int locals
	nFVars int // float slots: float locals
	// levelSlots[k] is the frame slot holding the level-k parallel loop
	// variable (serial vars and locals interleave, so slot != level).
	levelSlots []int
	frames     *framePool
	opts       Options
	// nChecked / nProven count guarded and guard-exempt subscripts.
	nChecked, nProven int
}

func (c *compiler) errf(line int, format string, args ...any) error {
	return fmt.Errorf("%s: %s", srcPos(c.file, line), fmt.Sprintf(format, args...))
}

// Compile type-checks the kernel, materializes its environment (evaluating
// let scalars and running dataset generators), and lowers the loop
// structure to a loopnest.Nest.
func Compile(k *Kernel) (*Compiled, error) { return CompileWith(k, Options{}) }

// CompileWith is Compile with explicit Options.
func CompileWith(k *Kernel, opts Options) (*Compiled, error) {
	c := &compiler{
		file:   k.File,
		env:    &Env{scalars: map[string]int64{}, intArr: map[string][]int64{}, fltArr: map[string][]float64{}},
		syms:   map[string]sym{},
		frames: &framePool{},
		opts:   opts,
	}
	for _, d := range k.Decls {
		if err := c.declare(d); err != nil {
			return nil, err
		}
	}
	if k.Root == nil {
		return nil, fmt.Errorf("frontend: kernel %s has no top-level loop", k.Name)
	}
	// A top-level reduce implicitly declares the kernel's result
	// accumulator; its merged value is what Run returns.
	if k.Root.Reduce != "" {
		if _, dup := c.syms[k.Root.Reduce]; dup {
			return nil, c.errf(k.Root.Line, "%q shadows an existing name", k.Root.Reduce)
		}
		c.syms[k.Root.Reduce] = sym{kind: symAcc}
	}
	root, err := c.loop(k.Root)
	if err != nil {
		return nil, err
	}
	nest := &loopnest.Nest{Name: k.Name, Root: root.loop}
	if err := nest.Validate(); err != nil {
		return nil, err
	}
	c.frames.nVars, c.frames.nFVars = c.nVars, c.nFVars
	return &Compiled{
		Kernel: k, Nest: nest, Env: c.env,
		CheckedAccesses: c.nChecked, ProvenAccesses: c.nProven,
	}, nil
}

// constInt evaluates a header-level constant integer expression.
func (c *compiler) constInt(e Expr) (int64, error) {
	switch x := e.(type) {
	case *IntLit:
		return x.Value, nil
	case *Ident:
		s, ok := c.syms[x.Name]
		if !ok || s.kind != symScalar {
			return 0, c.errf(x.Line, "%q is not a declared scalar", x.Name)
		}
		return s.val, nil
	case *UnaryExpr:
		if x.Op == "-" {
			v, err := c.constInt(x.X)
			return -v, err
		}
	case *BinExpr:
		l, err := c.constInt(x.L)
		if err != nil {
			return 0, err
		}
		r, err := c.constInt(x.R)
		if err != nil {
			return 0, err
		}
		switch x.Op {
		case "+":
			return l + r, nil
		case "-":
			return l - r, nil
		case "*":
			return l * r, nil
		case "/":
			if r == 0 {
				return 0, c.errf(x.Line, "division by zero in constant")
			}
			return l / r, nil
		case "%":
			if r == 0 {
				return 0, c.errf(x.Line, "modulo by zero in constant")
			}
			return l % r, nil
		}
	}
	return 0, fmt.Errorf("frontend: unsupported constant expression")
}

func (c *compiler) bindScalar(name string, v int64) {
	c.env.scalars[name] = v
	c.syms[name] = sym{kind: symScalar, val: v}
}

func (c *compiler) bindIntArr(name string, a []int64) {
	c.env.intArr[name] = a
	c.syms[name] = sym{kind: symIntArr}
}

func (c *compiler) bindFltArr(name string, a []float64) {
	c.env.fltArr[name] = a
	c.syms[name] = sym{kind: symFltArr}
}

func (c *compiler) declare(d Decl) error {
	switch x := d.(type) {
	case *LetDecl:
		v, err := c.constInt(x.Init)
		if err != nil {
			return err
		}
		if _, dup := c.syms[x.Name]; dup {
			return c.errf(x.Line, "%q redeclared", x.Name)
		}
		c.bindScalar(x.Name, v)
		return nil
	case *MatrixDecl:
		return c.declareMatrix(x)
	case *ArrayDecl:
		n, err := c.constInt(x.Len)
		if err != nil {
			return err
		}
		if n < 0 {
			return c.errf(x.Line, "negative array length %d", n)
		}
		if _, dup := c.syms[x.Name]; dup {
			return c.errf(x.Line, "%q redeclared", x.Name)
		}
		var init float64
		fill := false
		if x.Init != nil {
			switch v := x.Init.(type) {
			case *FloatLit:
				init, fill = v.Value, true
			case *IntLit:
				init, fill = float64(v.Value), true
			default:
				return c.errf(x.Line, "array initializer must be a literal")
			}
		}
		if x.Float {
			a := make([]float64, n)
			for i := range a {
				a[i] = init
			}
			c.bindFltArr(x.Name, a)
		} else {
			a := make([]int64, n)
			for i := range a {
				a[i] = int64(init)
			}
			c.bindIntArr(x.Name, a)
		}
		c.env.outputs = append(c.env.outputs, outputSpec{name: x.Name, float: x.Float, init: init, fill: fill})
		return nil
	}
	return fmt.Errorf("frontend: unknown declaration")
}

// declareMatrix runs a synthetic generator and binds the CSR fields under
// dotted names.
func (c *compiler) declareMatrix(x *MatrixDecl) error {
	args := make([]int64, len(x.Args))
	for i, a := range x.Args {
		v, err := c.constInt(a)
		if err != nil {
			return err
		}
		args[i] = v
	}
	need := func(n int) error {
		if len(args) != n {
			return c.errf(x.Line, "%s expects %d argument(s), got %d", x.Gen, n, len(args))
		}
		return nil
	}
	var m *matrix.CSR
	switch x.Gen {
	case "arrowhead":
		if err := need(1); err != nil {
			return err
		}
		m = matrix.Arrowhead(args[0])
	case "powerlaw":
		if err := need(2); err != nil {
			return err
		}
		m = matrix.PowerLaw(args[0], args[1], 0.8, 42)
	case "random":
		if err := need(2); err != nil {
			return err
		}
		m = matrix.Random(args[0], args[1], 42)
	case "cage":
		if err := need(1); err != nil {
			return err
		}
		m = matrix.CageLike(args[0], 3, 8, 42)
	default:
		return c.errf(x.Line, "unknown matrix generator %q", x.Gen)
	}
	cols := make([]int64, len(m.ColInd))
	for i, v := range m.ColInd {
		cols[i] = int64(v)
	}
	c.bindScalar(x.Name+".rows", m.Rows)
	c.bindScalar(x.Name+".nnz", m.NNZ())
	c.bindIntArr(x.Name+".rowPtr", m.RowPtr)
	c.bindIntArr(x.Name+".colInd", cols)
	c.bindFltArr(x.Name+".val", m.Val)
	return nil
}

// --- loop lowering ------------------------------------------------------------

// lowered is a parallel for lowered to a loopnest.Loop, plus the
// frame-level pieces its parent's slice runs inline: the loop's bounds and
// its slice over the parent's frame.
type lowered struct {
	loop   *loopnest.Loop
	lo, hi intFn
	run    sliceFn
}

// loop lowers a parallel for into a loopnest.Loop whose Slice runs the
// whole subtree on one frame per entry: a leaf runs its body statements in
// chunks of R, polling at chunk boundaries; an interior loop runs whole
// rows inline — pre statements, the child's bounds, a direct call of the
// child's frame-level slice, post statements — and spends R at its latch,
// as the emitted sliceTaskNestK do. The Bounds, Body, Pre and Post hooks
// serve the serial elision and the runtime's finishing of a stopped
// iteration.
func (c *compiler) loop(l *LoopStmt) (*lowered, error) {
	level := len(c.levelSlots)
	slot := c.newVar(l.Var, l.Line)
	if slot < 0 {
		return nil, c.errf(l.Line, "%q shadows an existing name", l.Var)
	}
	c.levelSlots = append(c.levelSlots, slot)
	// Bounds of this loop see the OUTER levels only.
	outerSlots := append([]int(nil), c.levelSlots[:level]...)
	ownSlots := append([]int(nil), c.levelSlots...)
	defer func() {
		c.levelSlots = c.levelSlots[:len(c.levelSlots)-1]
		delete(c.syms, l.Var)
	}()

	lo, err := c.intExpr(l.Lo)
	if err != nil {
		return nil, err
	}
	hi, err := c.intExpr(l.Hi)
	if err != nil {
		return nil, err
	}

	// Split the body around a nested parallel loop, if any.
	var pre, post []Stmt
	var child *LoopStmt
	var sumName string
	var sumLine int
	for _, s := range l.Body {
		switch x := s.(type) {
		case *LoopStmt:
			if x.Parallel {
				if child != nil {
					return nil, c.errf(x.Line, "at most one nested parallel loop per body")
				}
				child = x
				continue
			}
		case *SumDecl:
			if child != nil {
				return nil, c.errf(x.Line, "sum must be declared before the nested parallel loop")
			}
			if sumName != "" {
				return nil, c.errf(x.Line, "at most one sum per loop body")
			}
			init, ok := x.Init.(*FloatLit)
			iok, iokOK := x.Init.(*IntLit)
			switch {
			case ok && init.Value == 0:
			case iokOK && iok.Value == 0:
			default:
				return nil, c.errf(x.Line, "sum initializer must be 0.0 (reduction identity)")
			}
			sumName, sumLine = x.Name, x.Line
			continue
		}
		if child == nil {
			pre = append(pre, s)
		} else {
			post = append(post, s)
		}
	}

	out := &loopnest.Loop{Name: l.Var}
	out.Bounds = c.boundsClosure(outerSlots, lo, hi)
	frames := c.frames

	if child == nil {
		// Leaf loop: the whole body is the per-iteration program.
		if sumName != "" {
			return nil, c.errf(sumLine, "sum without a nested parallel loop to reduce it")
		}
		if len(post) != 0 {
			return nil, c.errf(l.Line, "internal: post statements without a child")
		}
		if l.Reduce != "" {
			// The loop reduces into an accumulator declared by its parent;
			// the acc symbol is already in scope (bound by the parent).
		}
		body, err := c.stmts(pre)
		if err != nil {
			return nil, err
		}
		// Every parallel loop variable is in scope here, so the leaf's
		// slots are all the levels' slots.
		frames.levelSlots = ownSlots
		rows := func(fr *frame, lo, hi int64) {
			for v := lo; v < hi; v++ {
				fr.vars[slot] = v
				runStmts(body, fr)
			}
		}
		out.Body = func(_ any, idx []int64, blo, bhi int64, acc any) {
			fr := frames.get(outerSlots, idx, acc)
			rows(fr, blo, bhi)
			frames.put(fr)
		}
		run := func(fr *frame, iv, hi, r int64, rt loopnest.SliceRT) (int64, int64) {
			for iv < hi {
				if r <= 0 {
					if rt.Aborted() {
						return iv, r
					}
					r = rt.Chunk(hi - iv)
				}
				n := min(r, hi-iv)
				rows(fr, iv, iv+n)
				iv += n
				r -= n
				if r == 0 && iv < hi {
					r = rt.Chunk(hi - iv)
					if rt.Poll() || rt.Aborted() {
						return iv, r
					}
				}
			}
			return iv, r
		}
		out.Slice = frames.entry(run, outerSlots, level)
		if l.Reduce != "" {
			out.Reduce = loopnest.SumFloat64()
		}
		return &lowered{loop: out, lo: lo, hi: hi, run: run}, nil
	}

	// Interior loop.
	if l.Reduce != "" {
		return nil, c.errf(l.Line, "reduce on an interior loop is not supported; declare a sum and reduce the inner loop")
	}
	if child.Reduce != "" && child.Reduce != sumName {
		return nil, c.errf(child.Line, "reduce(%s) does not match a declared sum", child.Reduce)
	}
	if sumName != "" && child.Reduce == "" {
		return nil, c.errf(sumLine, "sum %q declared but the nested loop does not reduce it", sumName)
	}

	preProg, err := c.stmts(pre)
	if err != nil {
		return nil, err
	}

	// The accumulator becomes visible to the child body and the post
	// statements.
	if sumName != "" {
		if _, dup := c.syms[sumName]; dup {
			return nil, c.errf(sumLine, "%q shadows an existing name", sumName)
		}
		c.syms[sumName] = sym{kind: symAcc}
		defer delete(c.syms, sumName)
	}

	kid, err := c.loop(child)
	if err != nil {
		return nil, err
	}
	postProg, err := c.stmts(post)
	if err != nil {
		return nil, err
	}

	if len(preProg) > 0 {
		out.Pre = func(_ any, idx []int64, acc any) {
			fr := frames.get(ownSlots, idx, acc)
			runStmts(preProg, fr)
			frames.put(fr)
		}
	}
	out.Children = []*loopnest.Loop{kid.loop}
	if len(postProg) > 0 {
		out.Post = func(_ any, idx []int64, _ any, children []any) {
			fr := frames.get(ownSlots, idx, children[0])
			runStmts(postProg, fr)
			frames.put(fr)
		}
	}
	// Only a leaf reduces, into a sum its parent declares, so the child's
	// accumulator is the one accumulator the rows below see: the frame
	// holds it for the whole entry, and pre statements cannot name it.
	reduces := sumName != ""
	run := func(fr *frame, iv, hi, r int64, rt loopnest.SliceRT) (int64, int64) {
		if reduces {
			fr.acc = rt.Acc(level + 1).(*float64)
		}
		for iv < hi {
			fr.vars[slot] = iv
			runStmts(preProg, fr)
			fr.level, fr.setup = level+1, true
			clo, chi := kid.lo(fr), kid.hi(fr)
			fr.setup = false
			if reduces {
				*fr.acc = 0
			}
			if clo < chi {
				var civ int64
				if civ, r = kid.run(fr, clo, chi, r, rt); civ < chi {
					rt.Stop(level+1, clo, civ, chi)
					return iv, r
				}
			}
			fr.level = level
			runStmts(postProg, fr)
			iv++
			if clo >= chi {
				if r <= 0 {
					if rt.Aborted() {
						return iv, r
					}
					r = rt.Chunk(hi - iv)
				}
				r--
			}
			if r == 0 {
				if iv >= hi {
					return iv, r
				}
				r = rt.Chunk(hi - iv)
				if rt.Poll() || rt.Aborted() {
					return iv, r
				}
			}
		}
		return iv, r
	}
	out.Slice = frames.entry(run, outerSlots, level)
	return &lowered{loop: out, lo: lo, hi: hi, run: run}, nil
}

// newVar allocates a frame slot for a loop variable. Parallel loop
// variables must be allocated in nesting order so slot == level.
func (c *compiler) newVar(name string, line int) int {
	if _, dup := c.syms[name]; dup {
		return -1
	}
	slot := c.nVars
	c.nVars++
	c.syms[name] = sym{kind: symVar, slot: slot}
	return slot
}

func (c *compiler) boundsClosure(outerSlots []int, lo, hi intFn) loopnest.Bounds {
	frames := c.frames
	return func(_ any, idx []int64) (int64, int64) {
		fr := frames.get(outerSlots, idx, nil)
		l, h := lo(fr), hi(fr)
		frames.put(fr)
		return l, h
	}
}
