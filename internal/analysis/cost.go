package analysis

// Cost pass: symbolic trip counts and weighted op counts per loop. The
// estimates feed Adaptive Chunking (a leaf's chunk hint replaces the
// cold-start chunk of 1, so the first heartbeat window already runs near
// the right granularity — the LB4OMP observation that schedule selection
// should be seeded with static cost knowledge, not learned from scratch)
// and hbcc tune -explain, which prints them next to measured results so
// mispredictions are visible.
//
// The model is deliberately coarse: unit weights per scalar op, a flat
// charge per array load/store, serial loops multiplied through by their
// trip count, branches charged at the more expensive arm. It does not try
// to be a cycle model — it only has to rank loops and size chunks to the
// right order of magnitude.

import (
	"fmt"

	"hbc/internal/frontend"
)

// Op weights, in abstract "op" units (roughly: cheap ALU op = 1).
const (
	wLoad   = 4 // array element read
	wStore  = 4 // array element write
	wAddSub = 1
	wMul    = 2
	wDiv    = 8 // also %
	wCmp    = 1 // comparisons, logical ops, unary ops
	wLocal  = 1 // local declare/assign
)

// chunkBudget is the target weighted-op cost of one leaf chunk: enough
// work to amortize a task spawn and a poll, small enough that a heartbeat
// window (many chunks) can still rebalance. ChunkHint = chunkBudget /
// IterCost, so a ~10-op spmv row-segment iteration gets a hint of a few
// hundred while escape's ~2000-op pixels get a hint of 1-2.
const chunkBudget = 4096

// maxChunkHint caps hints at Adaptive Chunking's own MaxChunk default so a
// near-zero-cost body cannot produce an absurd seed.
const maxChunkHint = 1 << 20

func symKnown(v int64) Sym { return Sym{Expr: fmt.Sprintf("%d", v), Val: v, Known: true} }

func symExpr(e string) Sym { return Sym{Expr: e} }

func symAdd(a, b Sym) Sym {
	if a.Known && b.Known {
		return symKnown(a.Val + b.Val)
	}
	if a.Known && a.Val == 0 {
		return b
	}
	if b.Known && b.Val == 0 {
		return a
	}
	return symExpr(fmt.Sprintf("%s + %s", a.Expr, b.Expr))
}

func symMul(a, b Sym) Sym {
	if a.Known && b.Known {
		return symKnown(a.Val * b.Val)
	}
	if a.Known && a.Val == 1 {
		return b
	}
	if b.Known && b.Val == 1 {
		return a
	}
	switch {
	case a.Known:
		return symExpr(fmt.Sprintf("%d * (%s)", a.Val, b.Expr))
	case b.Known:
		return symExpr(fmt.Sprintf("(%s) * %d", a.Expr, b.Val))
	}
	return symExpr(fmt.Sprintf("(%s) * (%s)", a.Expr, b.Expr))
}

// Variance lattice: uniform < data < control.
func varRank(v string) int {
	switch v {
	case VarianceData:
		return 1
	case VarianceControl:
		return 2
	}
	return 0
}

func varMax(a, b string) string {
	if varRank(b) > varRank(a) {
		return b
	}
	return a
}

// costs runs the cost pass: one LoopFacts per loop (parallel and serial),
// outermost first in source order.
func (f *Facts) costs(v *vetter, k *frontend.Kernel) {
	if k.Root == nil {
		return
	}
	c := &costWalker{v: v}
	c.loop(k.Root, 0)
	f.Loops = c.loops
}

type costWalker struct {
	v     *vetter
	loops []LoopFacts
}

// loop records one loop's facts and returns its total cost and variance as
// seen from the enclosing iteration.
func (c *costWalker) loop(l *frontend.LoopStmt, depth int) (total Sym, variance string) {
	trip, tripVar := c.trip(l)
	idx := len(c.loops)
	c.loops = append(c.loops, LoopFacts{
		Var: l.Var, Line: l.Line, Depth: depth, Parallel: l.Parallel,
		Leaf: isLeaf(l),
	})

	iter, bodyVar := c.stmts(l.Body, depth+1)
	variance = varMax(tripVar, bodyVar)
	total = symMul(trip, iter)

	lf := &c.loops[idx]
	lf.Trip, lf.IterCost, lf.TotalCost, lf.Variance = trip, iter, total, variance
	if l.Parallel && lf.Leaf && iter.Known && iter.Val > 0 {
		h := chunkBudget / iter.Val
		if h < 1 {
			h = 1
		}
		if h > maxChunkHint {
			h = maxChunkHint
		}
		lf.ChunkHint = h
	}
	return total, variance
}

func isLeaf(l *frontend.LoopStmt) bool {
	for _, s := range l.Body {
		if x, ok := s.(*frontend.LoopStmt); ok && x.Parallel {
			return false
		}
	}
	return true
}

// trip estimates a loop's trip count. Three cases, best first: constant
// bounds fold exactly; a rowPtr[e] .. rowPtr[e+1] pair — the CSR row
// segment idiom — averages to nnz/rows (data variance: the actual count is
// the row's nonzero count); anything else stays a rendered expression.
func (c *costWalker) trip(l *frontend.LoopStmt) (Sym, string) {
	lo, lok := c.v.constInt(l.Lo)
	hi, hok := c.v.constInt(l.Hi)
	if lok && hok {
		n := hi - lo
		if n < 0 {
			n = 0
		}
		return symKnown(n), VarianceUniform
	}
	if m := rowPtrPair(l.Lo, l.Hi); m != "" {
		s := symExpr(fmt.Sprintf("%s.nnz / %s.rows", m, m))
		nnz, nok := c.constSym(m + ".nnz")
		rows, rok := c.constSym(m + ".rows")
		if nok && rok && rows > 0 {
			s.Val, s.Known = nnz/rows, true
		}
		return s, VarianceData
	}
	v := VarianceUniform
	if hasLoad(l.Lo) || hasLoad(l.Hi) {
		v = VarianceData
	}
	return symExpr(fmt.Sprintf("%s - %s",
		frontend.FormatExpr(l.Hi), frontend.FormatExpr(l.Lo))), v
}

func (c *costWalker) constSym(name string) (int64, bool) {
	if s, ok := c.v.syms[name]; ok && s.kind == kScalarConst {
		return s.val, true
	}
	return 0, false
}

// rowPtrPair reports the matrix name M when the bounds are M.rowPtr[e] and
// M.rowPtr[e+1] for the same e, else "".
func rowPtrPair(lo, hi frontend.Expr) string {
	li, ok := lo.(*frontend.IndexExpr)
	if !ok || len(li.Array) < len(".rowPtr") || li.Array[len(li.Array)-len(".rowPtr"):] != ".rowPtr" {
		return ""
	}
	hx, ok := hi.(*frontend.IndexExpr)
	if !ok || hx.Array != li.Array {
		return ""
	}
	b, ok := hx.Index.(*frontend.BinExpr)
	if !ok || b.Op != "+" {
		return ""
	}
	one, ok := b.R.(*frontend.IntLit)
	if !ok || one.Value != 1 {
		return ""
	}
	if frontend.FormatExpr(b.L) != frontend.FormatExpr(li.Index) {
		return ""
	}
	return li.Array[:len(li.Array)-len(".rowPtr")]
}

func hasLoad(e frontend.Expr) bool {
	switch x := e.(type) {
	case *frontend.IndexExpr:
		return true
	case *frontend.BinExpr:
		return hasLoad(x.L) || hasLoad(x.R)
	case *frontend.UnaryExpr:
		return hasLoad(x.X)
	}
	return false
}

// stmts costs a statement list executed once. Known contributions are
// summed apart from symbolic ones so the rendered expression reads as
// "K + sym" rather than an interleaving of every straight-line statement.
func (c *costWalker) stmts(list []frontend.Stmt, depth int) (Sym, string) {
	var konst int64
	var sym Sym
	haveSym := false
	variance := VarianceUniform
	for _, s := range list {
		cost, v := c.stmt(s, depth)
		variance = varMax(variance, v)
		if cost.Known {
			konst += cost.Val
			continue
		}
		if haveSym {
			sym = symAdd(sym, cost)
		} else {
			sym, haveSym = cost, true
		}
	}
	if !haveSym {
		return symKnown(konst), variance
	}
	if konst != 0 {
		sym = symExpr(fmt.Sprintf("%d + %s", konst, sym.Expr))
	}
	return sym, variance
}

func (c *costWalker) stmt(s frontend.Stmt, depth int) (Sym, string) {
	switch x := s.(type) {
	case *frontend.LoopStmt:
		t, v := c.loop(x, depth)
		// A serial loop guarding a break runs a data-dependent prefix of its
		// iterations — the estimate above is the worst case.
		if !x.Parallel && hasBreak(x.Body) {
			v = VarianceControl
		}
		return t, v
	case *frontend.LetStmt:
		return symKnown(exprCost(x.Init) + wLocal), VarianceUniform
	case *frontend.SumDecl:
		return symKnown(wLocal), VarianceUniform
	case *frontend.AssignStmt:
		cost := exprCost(x.Value) + wLocal
		if x.Index != nil {
			cost = exprCost(x.Value) + exprCost(x.Index) + wStore
		}
		return symKnown(cost), VarianceUniform
	case *frontend.IfStmt:
		thenC, thenV := c.stmts(x.Then, depth)
		elseC, elseV := c.stmts(x.Else, depth)
		// Charge the dearer arm — a symbolic arm (it contains a loop)
		// dominates a constant one. A branch whose arms differ in cost makes
		// per-iteration work control-varying when the condition reads data.
		arm := thenC
		switch {
		case thenC.Known && !elseC.Known:
			arm = elseC
		case thenC.Known && elseC.Known && elseC.Val > thenC.Val:
			arm = elseC
		case !thenC.Known && !elseC.Known:
			arm = symExpr(fmt.Sprintf("max(%s, %s)", thenC.Expr, elseC.Expr))
		}
		v := varMax(thenV, elseV)
		if hasLoad(x.Cond) && (!thenC.Known || !elseC.Known || thenC.Val != elseC.Val) {
			v = varMax(v, VarianceControl)
		}
		return symAdd(symKnown(exprCost(x.Cond)), arm), v
	case *frontend.BreakStmt:
		return symKnown(wCmp), VarianceUniform
	}
	return symKnown(0), VarianceUniform
}

func hasBreak(list []frontend.Stmt) bool {
	for _, s := range list {
		switch x := s.(type) {
		case *frontend.BreakStmt:
			return true
		case *frontend.IfStmt:
			if hasBreak(x.Then) || hasBreak(x.Else) {
				return true
			}
		}
	}
	return false
}

// exprCost is the weighted op count of evaluating e once.
func exprCost(e frontend.Expr) int64 {
	switch x := e.(type) {
	case *frontend.IndexExpr:
		return wLoad + exprCost(x.Index)
	case *frontend.BinExpr:
		var w int64
		switch x.Op {
		case "+", "-":
			w = wAddSub
		case "*":
			w = wMul
		case "/", "%":
			w = wDiv
		default:
			w = wCmp
		}
		return w + exprCost(x.L) + exprCost(x.R)
	case *frontend.UnaryExpr:
		return wCmp + exprCost(x.X)
	}
	return 0
}
