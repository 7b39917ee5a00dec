package frontend

import "fmt"

// Compiled expressions and statements are closure trees over a frame, so
// interpretation costs one closure call per expression node. Everything
// else is resolved at Compile: a subscript closure captures its array (and,
// in checked mode, the array's length), scalars fold to constants, and
// locals and loop variables are frame slots. A frame is the private scratch
// of one hook call, taken from its Compiled's pool and returned when the
// call ends (see framePool).

type intFn func(*frame) int64
type floatFn func(*frame) float64

// ctrl is statement-level control flow.
type ctrl int

const (
	ctrlNext ctrl = iota
	ctrlBreak
)

type stmtFn func(*frame) ctrl

func runStmts(prog []stmtFn, fr *frame) ctrl {
	for _, s := range prog {
		if s(fr) == ctrlBreak {
			return ctrlBreak
		}
	}
	return ctrlNext
}

// --- expression compilation ---------------------------------------------------

// expr compiles an expression, reporting whether it is float-typed.
func (c *compiler) expr(e Expr) (intFn, floatFn, bool, error) {
	switch x := e.(type) {
	case *IntLit:
		v := x.Value
		return func(*frame) int64 { return v }, nil, false, nil
	case *FloatLit:
		v := x.Value
		return nil, func(*frame) float64 { return v }, true, nil
	case *Ident:
		s, ok := c.syms[x.Name]
		if !ok {
			return nil, nil, false, c.errf(x.Line, "undefined name %q", x.Name)
		}
		switch s.kind {
		case symScalar:
			v := s.val
			return func(*frame) int64 { return v }, nil, false, nil
		case symVar:
			slot := s.slot
			return func(fr *frame) int64 { return fr.vars[slot] }, nil, false, nil
		case symIntLocal:
			slot := s.slot
			return func(fr *frame) int64 { return fr.vars[slot] }, nil, false, nil
		case symFltLocal:
			slot := s.slot
			return nil, func(fr *frame) float64 { return fr.fvars[slot] }, true, nil
		case symAcc:
			return nil, func(fr *frame) float64 { return *fr.acc }, true, nil
		default:
			return nil, nil, false, c.errf(x.Line, "%q is an array; index it", x.Name)
		}
	case *IndexExpr:
		s, ok := c.syms[x.Array]
		if !ok {
			return nil, nil, false, c.errf(x.Line, "undefined array %q", x.Array)
		}
		idx, err := c.intExpr(x.Index)
		if err != nil {
			return nil, nil, false, err
		}
		switch s.kind {
		case symIntArr:
			a := c.env.intArr[x.Array]
			idx = c.guardIdx(x.Array, x.Line, len(a), idx)
			return func(fr *frame) int64 { return a[idx(fr)] }, nil, false, nil
		case symFltArr:
			a := c.env.fltArr[x.Array]
			idx = c.guardIdx(x.Array, x.Line, len(a), idx)
			return nil, func(fr *frame) float64 { return a[idx(fr)] }, true, nil
		default:
			return nil, nil, false, c.errf(x.Line, "%q is not an array", x.Array)
		}
	case *UnaryExpr:
		fi, ff, isF, err := c.expr(x.X)
		if err != nil {
			return nil, nil, false, err
		}
		switch x.Op {
		case "-":
			if isF {
				return nil, func(fr *frame) float64 { return -ff(fr) }, true, nil
			}
			return func(fr *frame) int64 { return -fi(fr) }, nil, false, nil
		case "!":
			if isF {
				return nil, nil, false, c.errf(x.Line, "! requires a boolean (integer) operand")
			}
			return func(fr *frame) int64 {
				if fi(fr) == 0 {
					return 1
				}
				return 0
			}, nil, false, nil
		}
		return nil, nil, false, c.errf(x.Line, "unknown unary %q", x.Op)
	case *BinExpr:
		return c.binExpr(x)
	}
	return nil, nil, false, fmt.Errorf("frontend: unknown expression")
}

func (c *compiler) binExpr(x *BinExpr) (intFn, floatFn, bool, error) {
	li, lf, lIsF, err := c.expr(x.L)
	if err != nil {
		return nil, nil, false, err
	}
	ri, rf, rIsF, err := c.expr(x.R)
	if err != nil {
		return nil, nil, false, err
	}
	anyF := lIsF || rIsF
	toF := func(fi intFn, ff floatFn) floatFn {
		if ff != nil {
			return ff
		}
		return func(fr *frame) float64 { return float64(fi(fr)) }
	}
	b2i := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	switch x.Op {
	case "+", "-", "*", "/":
		if anyF {
			lv, rv := toF(li, lf), toF(ri, rf)
			switch x.Op {
			case "+":
				return nil, func(fr *frame) float64 { return lv(fr) + rv(fr) }, true, nil
			case "-":
				return nil, func(fr *frame) float64 { return lv(fr) - rv(fr) }, true, nil
			case "*":
				return nil, func(fr *frame) float64 { return lv(fr) * rv(fr) }, true, nil
			default:
				return nil, func(fr *frame) float64 { return lv(fr) / rv(fr) }, true, nil
			}
		}
		switch x.Op {
		case "+":
			return func(fr *frame) int64 { return li(fr) + ri(fr) }, nil, false, nil
		case "-":
			return func(fr *frame) int64 { return li(fr) - ri(fr) }, nil, false, nil
		case "*":
			return func(fr *frame) int64 { return li(fr) * ri(fr) }, nil, false, nil
		default:
			return func(fr *frame) int64 {
				r := ri(fr)
				if r == 0 {
					panic(fmt.Sprintf("frontend: line %d: division by zero", x.Line))
				}
				return li(fr) / r
			}, nil, false, nil
		}
	case "%":
		if anyF {
			return nil, nil, false, c.errf(x.Line, "%% requires integer operands")
		}
		return func(fr *frame) int64 {
			r := ri(fr)
			if r == 0 {
				panic(fmt.Sprintf("frontend: line %d: modulo by zero", x.Line))
			}
			return li(fr) % r
		}, nil, false, nil
	case "==", "!=", "<", "<=", ">", ">=":
		if anyF {
			lv, rv := toF(li, lf), toF(ri, rf)
			switch x.Op {
			case "==":
				return func(fr *frame) int64 { return b2i(lv(fr) == rv(fr)) }, nil, false, nil
			case "!=":
				return func(fr *frame) int64 { return b2i(lv(fr) != rv(fr)) }, nil, false, nil
			case "<":
				return func(fr *frame) int64 { return b2i(lv(fr) < rv(fr)) }, nil, false, nil
			case "<=":
				return func(fr *frame) int64 { return b2i(lv(fr) <= rv(fr)) }, nil, false, nil
			case ">":
				return func(fr *frame) int64 { return b2i(lv(fr) > rv(fr)) }, nil, false, nil
			default:
				return func(fr *frame) int64 { return b2i(lv(fr) >= rv(fr)) }, nil, false, nil
			}
		}
		switch x.Op {
		case "==":
			return func(fr *frame) int64 { return b2i(li(fr) == ri(fr)) }, nil, false, nil
		case "!=":
			return func(fr *frame) int64 { return b2i(li(fr) != ri(fr)) }, nil, false, nil
		case "<":
			return func(fr *frame) int64 { return b2i(li(fr) < ri(fr)) }, nil, false, nil
		case "<=":
			return func(fr *frame) int64 { return b2i(li(fr) <= ri(fr)) }, nil, false, nil
		case ">":
			return func(fr *frame) int64 { return b2i(li(fr) > ri(fr)) }, nil, false, nil
		default:
			return func(fr *frame) int64 { return b2i(li(fr) >= ri(fr)) }, nil, false, nil
		}
	case "&&", "||":
		if anyF {
			return nil, nil, false, c.errf(x.Line, "%s requires boolean (integer) operands", x.Op)
		}
		if x.Op == "&&" {
			return func(fr *frame) int64 { return b2i(li(fr) != 0 && ri(fr) != 0) }, nil, false, nil
		}
		return func(fr *frame) int64 { return b2i(li(fr) != 0 || ri(fr) != 0) }, nil, false, nil
	}
	return nil, nil, false, c.errf(x.Line, "unknown operator %q", x.Op)
}

// guardIdx wraps a subscript closure of an array of length n with a range
// guard in checked mode. An access the oracle proves in bounds keeps the raw
// closure — the proofs' whole point — and the default (unchecked) build is
// untouched.
func (c *compiler) guardIdx(name string, line, n int, idx intFn) intFn {
	if !c.opts.CheckBounds {
		return idx
	}
	if c.opts.Oracle != nil && c.opts.Oracle.ProvenInBounds(line, name) {
		c.nProven++
		return idx
	}
	c.nChecked++
	file := c.file
	return func(fr *frame) int64 {
		i := idx(fr)
		if i < 0 || i >= int64(n) {
			panic(fmt.Sprintf("%s: %s[%d] out of range [0, %d)", srcPos(file, line), name, i, n))
		}
		return i
	}
}

// intExpr compiles an expression that must be integer-typed.
func (c *compiler) intExpr(e Expr) (intFn, error) {
	fi, _, isF, err := c.expr(e)
	if err != nil {
		return nil, err
	}
	if isF {
		return nil, fmt.Errorf("frontend: expected an integer expression")
	}
	return fi, nil
}

// numExpr compiles an expression coerced to float.
func (c *compiler) numExpr(e Expr) (floatFn, error) {
	fi, ff, isF, err := c.expr(e)
	if err != nil {
		return nil, err
	}
	if isF {
		return ff, nil
	}
	return func(fr *frame) float64 { return float64(fi(fr)) }, nil
}

// --- statement compilation ------------------------------------------------------

// stmts compiles a statement list in a fresh lexical scope.
func (c *compiler) stmts(list []Stmt) ([]stmtFn, error) {
	var declared []string
	defer func() {
		for _, n := range declared {
			delete(c.syms, n)
		}
	}()
	var prog []stmtFn
	for _, s := range list {
		fn, names, err := c.stmt(s)
		if err != nil {
			return nil, err
		}
		declared = append(declared, names...)
		prog = append(prog, fn)
	}
	return prog, nil
}

func (c *compiler) stmt(s Stmt) (stmtFn, []string, error) {
	switch x := s.(type) {
	case *LetStmt:
		return c.letStmt(x)
	case *AssignStmt:
		fn, err := c.assign(x)
		return fn, nil, err
	case *IfStmt:
		cond, err := c.intExpr(x.Cond)
		if err != nil {
			return nil, nil, err
		}
		then, err := c.stmts(x.Then)
		if err != nil {
			return nil, nil, err
		}
		els, err := c.stmts(x.Else)
		if err != nil {
			return nil, nil, err
		}
		return func(fr *frame) ctrl {
			if cond(fr) != 0 {
				return runStmts(then, fr)
			}
			return runStmts(els, fr)
		}, nil, nil
	case *BreakStmt:
		return func(*frame) ctrl { return ctrlBreak }, nil, nil
	case *LoopStmt:
		if x.Parallel {
			return nil, nil, c.errf(x.Line, "parallel loops may not appear inside serial statements")
		}
		return c.serialFor(x)
	case *SumDecl:
		return nil, nil, c.errf(x.Line, "sum is only valid directly before a nested parallel loop")
	}
	return nil, nil, fmt.Errorf("frontend: unknown statement")
}

func (c *compiler) letStmt(x *LetStmt) (stmtFn, []string, error) {
	if _, dup := c.syms[x.Name]; dup {
		return nil, nil, c.errf(x.Line, "%q shadows an existing name", x.Name)
	}
	fi, ff, isF, err := c.expr(x.Init)
	if err != nil {
		return nil, nil, err
	}
	if isF {
		slot := c.nFVars
		c.nFVars++
		c.syms[x.Name] = sym{kind: symFltLocal, slot: slot}
		return func(fr *frame) ctrl {
			fr.fvars[slot] = ff(fr)
			return ctrlNext
		}, []string{x.Name}, nil
	}
	slot := c.nVars
	c.nVars++
	c.syms[x.Name] = sym{kind: symIntLocal, slot: slot}
	return func(fr *frame) ctrl {
		fr.vars[slot] = fi(fr)
		return ctrlNext
	}, []string{x.Name}, nil
}

func (c *compiler) assign(x *AssignStmt) (stmtFn, error) {
	s, ok := c.syms[x.Target]
	if !ok {
		return nil, c.errf(x.Line, "undefined name %q", x.Target)
	}
	if x.Index != nil {
		idx, err := c.intExpr(x.Index)
		if err != nil {
			return nil, err
		}
		switch s.kind {
		case symFltArr:
			a := c.env.fltArr[x.Target]
			idx = c.guardIdx(x.Target, x.Line, len(a), idx)
			val, err := c.numExpr(x.Value)
			if err != nil {
				return nil, err
			}
			if x.Add {
				return func(fr *frame) ctrl {
					a[idx(fr)] += val(fr)
					return ctrlNext
				}, nil
			}
			return func(fr *frame) ctrl {
				a[idx(fr)] = val(fr)
				return ctrlNext
			}, nil
		case symIntArr:
			a := c.env.intArr[x.Target]
			idx = c.guardIdx(x.Target, x.Line, len(a), idx)
			val, err := c.intExpr(x.Value)
			if err != nil {
				return nil, err
			}
			if x.Add {
				return func(fr *frame) ctrl {
					a[idx(fr)] += val(fr)
					return ctrlNext
				}, nil
			}
			return func(fr *frame) ctrl {
				a[idx(fr)] = val(fr)
				return ctrlNext
			}, nil
		default:
			return nil, c.errf(x.Line, "%q is not an array", x.Target)
		}
	}
	switch s.kind {
	case symAcc:
		if !x.Add {
			return nil, c.errf(x.Line, "accumulators only support += (reduction identity)")
		}
		val, err := c.numExpr(x.Value)
		if err != nil {
			return nil, err
		}
		return func(fr *frame) ctrl {
			*fr.acc += val(fr)
			return ctrlNext
		}, nil
	case symFltLocal:
		val, err := c.numExpr(x.Value)
		if err != nil {
			return nil, err
		}
		slot := s.slot
		if x.Add {
			return func(fr *frame) ctrl {
				fr.fvars[slot] += val(fr)
				return ctrlNext
			}, nil
		}
		return func(fr *frame) ctrl {
			fr.fvars[slot] = val(fr)
			return ctrlNext
		}, nil
	case symIntLocal:
		val, err := c.intExpr(x.Value)
		if err != nil {
			return nil, err
		}
		slot := s.slot
		if x.Add {
			return func(fr *frame) ctrl {
				fr.vars[slot] += val(fr)
				return ctrlNext
			}, nil
		}
		return func(fr *frame) ctrl {
			fr.vars[slot] = val(fr)
			return ctrlNext
		}, nil
	case symVar:
		return nil, c.errf(x.Line, "loop variable %q is read-only", x.Target)
	case symScalar:
		return nil, c.errf(x.Line, "scalar %q is immutable; use a local (let)", x.Target)
	default:
		return nil, c.errf(x.Line, "cannot assign to %q", x.Target)
	}
}

// serialFor compiles a plain (non-parallel) loop statement.
func (c *compiler) serialFor(x *LoopStmt) (stmtFn, []string, error) {
	if x.Reduce != "" {
		return nil, nil, c.errf(x.Line, "reduce is only valid on parallel loops")
	}
	lo, err := c.intExpr(x.Lo)
	if err != nil {
		return nil, nil, err
	}
	hi, err := c.intExpr(x.Hi)
	if err != nil {
		return nil, nil, err
	}
	if _, dup := c.syms[x.Var]; dup {
		return nil, nil, c.errf(x.Line, "%q shadows an existing name", x.Var)
	}
	slot := c.nVars
	c.nVars++
	c.syms[x.Var] = sym{kind: symVar, slot: slot}
	body, err := c.stmts(x.Body)
	delete(c.syms, x.Var)
	if err != nil {
		return nil, nil, err
	}
	return func(fr *frame) ctrl {
		for v, end := lo(fr), hi(fr); v < end; v++ {
			fr.vars[slot] = v
			if runStmts(body, fr) == ctrlBreak {
				break
			}
		}
		return ctrlNext
	}, nil, nil
}
