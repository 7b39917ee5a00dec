package codegen

// Function-level emission: expressions, statements, and the per-level
// monomorphic functions (bounds, body, slice task, pre, leftover tail),
// plus the Nest builder, the flat-context RunSerial driver, and the
// package scaffolding (Env, NewEnv, Reset, accessors, init registration).
//
// Value semantics mirror internal/frontend/eval.go exactly: int64 and
// float64 are the only types, mixed arithmetic coerces the int side to
// float, comparisons and logical operators are int64-valued (1/0) when
// used as values and short-circuit as conditions, and serial loop bounds
// are evaluated once before the loop, lo first.

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"hbc/internal/frontend"
)

// fn emits one function body. Each function starts from a fresh copy of
// the package-global scope plus its loop-variable parameters, so the same
// statement list can be compiled into both the plain body and the slice
// task without cross-talk.
type fn struct {
	em     *emitter
	syms   map[string]sym
	hoist  map[string]bool // env-field goNames hoisted into locals
	b      bytes.Buffer
	indent int
	// serialDepth counts enclosing emitted serial loops; a break at depth 0
	// becomes breakTop instead of Go's break.
	serialDepth int
	breakTop    string // "continue" in iteration loops, "return" in hooks
	serialN     int
	// accLocal renders the accumulator as the local _a, which the leaf
	// slice task loads from and stores back to *acc, instead of *acc.
	accLocal bool
}

// newFn builds a function scope with loop variables of levels [0, upto)
// visible, optionally the level-upto variable itself, and optionally an
// accumulator bound under accName.
func (em *emitter) newFn(upto int, ownVar bool, accName, breakTop string) *fn {
	f := &fn{em: em, syms: make(map[string]sym, len(em.syms)+upto+2), hoist: map[string]bool{}, breakTop: breakTop}
	for k, v := range em.syms {
		f.syms[k] = v
	}
	n := upto
	if ownVar {
		n++
	}
	for i := 0; i < n && i < len(em.levels); i++ {
		lv := em.levels[i]
		f.syms[lv.stmt.Var] = sym{kind: symLoopVar, goName: lv.goVar}
	}
	if accName != "" {
		f.syms[accName] = sym{kind: symAcc, goName: "acc"}
	}
	return f
}

func (f *fn) wf(format string, args ...any) {
	f.b.WriteString(strings.Repeat("\t", f.indent))
	fmt.Fprintf(&f.b, format, args...)
	f.b.WriteByte('\n')
}

// --- live-in hoisting ---------------------------------------------------------

// scanStmts marks every Env field the statements touch for hoisting.
func (f *fn) scanStmts(list []frontend.Stmt) {
	for _, s := range list {
		switch x := s.(type) {
		case *frontend.AssignStmt:
			f.scanName(x.Target)
			f.scanExpr(x.Index)
			f.scanExpr(x.Value)
		case *frontend.IfStmt:
			f.scanExpr(x.Cond)
			f.scanStmts(x.Then)
			f.scanStmts(x.Else)
		case *frontend.LetStmt:
			f.scanExpr(x.Init)
		case *frontend.SumDecl:
			f.scanExpr(x.Init)
		case *frontend.LoopStmt:
			f.scanExpr(x.Lo)
			f.scanExpr(x.Hi)
			f.scanStmts(x.Body)
		}
	}
}

func (f *fn) scanExpr(e frontend.Expr) {
	switch x := e.(type) {
	case nil:
	case *frontend.Ident:
		f.scanName(x.Name)
	case *frontend.IndexExpr:
		f.scanName(x.Array)
		f.scanExpr(x.Index)
	case *frontend.BinExpr:
		f.scanExpr(x.L)
		f.scanExpr(x.R)
	case *frontend.UnaryExpr:
		f.scanExpr(x.X)
	}
}

func (f *fn) scanName(name string) {
	if s, ok := f.em.syms[name]; ok && s.kind.envResident() {
		f.hoist[s.goName] = true
	}
}

// emitHoists writes the live-in hoist block: one local per Env field the
// function touches, in declaration order. The locals keep the hot loop's
// loads off the env pointer and give the compiler a stable base for
// bounds-check elimination.
func (f *fn) emitHoists() {
	for _, fld := range f.em.fields {
		if f.hoist[fld.goName] {
			f.wf("%s := e.%s", fld.goName, fld.goName)
		}
	}
}

// ref renders access to a symbol's storage.
func (f *fn) ref(s sym) string {
	if s.kind.envResident() && !f.hoist[s.goName] {
		return "e." + s.goName
	}
	return s.goName
}

// --- expressions --------------------------------------------------------------

// val renders an expression as a Go value, reporting whether it is
// float64-typed. Comparisons and logical operators in value position render
// through gen.B2i, mirroring the interpreter's b2i coercion.
func (f *fn) val(e frontend.Expr) (string, bool, error) {
	switch x := e.(type) {
	case *frontend.IntLit:
		return strconv.FormatInt(x.Value, 10), false, nil
	case *frontend.FloatLit:
		return fmtFloat(x.Value), true, nil
	case *frontend.Ident:
		s, ok := f.syms[x.Name]
		if !ok {
			return "", false, fmt.Errorf("codegen: line %d: undefined name %q", x.Line, x.Name)
		}
		switch s.kind {
		case symConst, symEnvScalar, symLoopVar, symIntLocal:
			return f.ref(s), false, nil
		case symFltLocal:
			return s.goName, true, nil
		case symAcc:
			if f.accLocal {
				return "_a", true, nil
			}
			return "(*acc)", true, nil
		default:
			return "", false, fmt.Errorf("codegen: line %d: %q is an array; index it", x.Line, x.Name)
		}
	case *frontend.IndexExpr:
		s, ok := f.syms[x.Array]
		if !ok || (s.kind != symIntArr && s.kind != symFltArr) {
			return "", false, fmt.Errorf("codegen: line %d: %q is not an array", x.Line, x.Array)
		}
		idx, err := f.intE(x.Index)
		if err != nil {
			return "", false, err
		}
		return f.ref(s) + "[" + idx + "]", s.kind == symFltArr, nil
	case *frontend.UnaryExpr:
		switch x.Op {
		case "-":
			c, isF, err := f.val(x.X)
			return "(-" + c + ")", isF, err
		case "!":
			c, err := f.cond(x.X)
			return "gen.B2i(!" + c + ")", false, err
		}
		return "", false, fmt.Errorf("codegen: unknown unary operator %q", x.Op)
	case *frontend.BinExpr:
		switch x.Op {
		case "+", "-", "*", "/":
			l, lf, err := f.val(x.L)
			if err != nil {
				return "", false, err
			}
			r, rf, err := f.val(x.R)
			if err != nil {
				return "", false, err
			}
			if lf || rf {
				if !lf {
					l = "float64(" + l + ")"
				}
				if !rf {
					r = "float64(" + r + ")"
				}
				return "(" + l + " " + x.Op + " " + r + ")", true, nil
			}
			return "(" + l + " " + x.Op + " " + r + ")", false, nil
		case "%":
			l, err := f.intE(x.L)
			if err != nil {
				return "", false, err
			}
			r, err := f.intE(x.R)
			if err != nil {
				return "", false, err
			}
			return "(" + l + " % " + r + ")", false, nil
		case "==", "!=", "<", "<=", ">", ">=", "&&", "||":
			c, err := f.cond(e)
			return "gen.B2i" + c, false, err
		}
		return "", false, fmt.Errorf("codegen: unknown operator %q", x.Op)
	}
	return "", false, fmt.Errorf("codegen: unknown expression")
}

// cond renders an expression as a parenthesized Go bool. Logical operators
// short-circuit exactly as the interpreter's closures do.
func (f *fn) cond(e frontend.Expr) (string, error) {
	switch x := e.(type) {
	case *frontend.BinExpr:
		switch x.Op {
		case "==", "!=", "<", "<=", ">", ">=":
			l, lf, err := f.val(x.L)
			if err != nil {
				return "", err
			}
			r, rf, err := f.val(x.R)
			if err != nil {
				return "", err
			}
			if lf || rf {
				if !lf {
					l = "float64(" + l + ")"
				}
				if !rf {
					r = "float64(" + r + ")"
				}
			}
			return "(" + l + " " + x.Op + " " + r + ")", nil
		case "&&", "||":
			l, err := f.cond(x.L)
			if err != nil {
				return "", err
			}
			r, err := f.cond(x.R)
			if err != nil {
				return "", err
			}
			return "(" + l + " " + x.Op + " " + r + ")", nil
		}
	case *frontend.UnaryExpr:
		if x.Op == "!" {
			c, err := f.cond(x.X)
			return "(!" + c + ")", err
		}
	}
	i, err := f.intE(e)
	if err != nil {
		return "", err
	}
	return "(" + i + " != 0)", nil
}

// intE renders an int64-typed expression.
func (f *fn) intE(e frontend.Expr) (string, error) {
	c, isF, err := f.val(e)
	if err != nil {
		return "", err
	}
	if isF {
		return "", fmt.Errorf("codegen: expected an integer expression")
	}
	return c, nil
}

// fltE renders a float64-typed expression, coercing ints.
func (f *fn) fltE(e frontend.Expr) (string, error) {
	c, isF, err := f.val(e)
	if err != nil {
		return "", err
	}
	if !isF {
		return "float64(" + c + ")", nil
	}
	return c, nil
}

// --- statements ---------------------------------------------------------------

func (f *fn) stmts(list []frontend.Stmt) error {
	var added []string
	defer func() {
		for _, n := range added {
			delete(f.syms, n)
		}
	}()
	for i, s := range list {
		switch x := s.(type) {
		case *frontend.AssignStmt:
			if err := f.assign(x); err != nil {
				return err
			}
		case *frontend.IfStmt:
			c, err := f.cond(x.Cond)
			if err != nil {
				return err
			}
			f.wf("if %s {", c)
			f.indent++
			if err := f.stmts(x.Then); err != nil {
				return err
			}
			f.indent--
			if len(x.Else) > 0 {
				f.wf("} else {")
				f.indent++
				if err := f.stmts(x.Else); err != nil {
					return err
				}
				f.indent--
			}
			f.wf("}")
		case *frontend.LetStmt:
			c, isF, err := f.val(x.Init)
			if err != nil {
				return err
			}
			g := f.em.transient(x.Name)
			kind := symIntLocal
			if isF {
				kind = symFltLocal
			} else {
				// An untyped literal initializer would infer `int`; the kernel
				// language has only int64.
				c = "int64(" + c + ")"
			}
			f.syms[x.Name] = sym{kind: kind, goName: g}
			added = append(added, x.Name)
			f.wf("%s := %s", g, c)
			if !readsName(list[i+1:], x.Name) {
				f.wf("_ = %s", g)
			}
		case *frontend.BreakStmt:
			if f.serialDepth > 0 {
				f.wf("break")
			} else {
				f.wf(f.breakTop)
			}
		case *frontend.LoopStmt:
			if x.Parallel {
				return fmt.Errorf("codegen: line %d: unexpected nested parallel loop", x.Line)
			}
			if err := f.serialLoop(x); err != nil {
				return err
			}
		default:
			return fmt.Errorf("codegen: unsupported statement")
		}
	}
	return nil
}

// serialLoop emits a sequential for. Both bounds are evaluated once before
// the loop, lo first, matching the interpreter.
func (f *fn) serialLoop(x *frontend.LoopStmt) error {
	lo, err := f.intE(x.Lo)
	if err != nil {
		return err
	}
	hi, err := f.intE(x.Hi)
	if err != nil {
		return err
	}
	g := f.em.transient(x.Var)
	end := fmt.Sprintf("_end%d", f.serialN)
	f.serialN++
	f.syms[x.Var] = sym{kind: symLoopVar, goName: g}
	// int64 conversions pin the types: an untyped literal bound would
	// otherwise infer `int`. Both bounds are evaluated here, once, lo first.
	f.wf("for %s, %s := int64(%s), int64(%s); %s < %s; %s++ {", g, end, lo, hi, g, end, g)
	f.indent++
	f.serialDepth++
	err = f.stmts(x.Body)
	f.serialDepth--
	f.indent--
	delete(f.syms, x.Var)
	if err != nil {
		return err
	}
	f.wf("}")
	return nil
}

func (f *fn) assign(x *frontend.AssignStmt) error {
	s, ok := f.syms[x.Target]
	if !ok {
		return fmt.Errorf("codegen: line %d: undefined name %q", x.Line, x.Target)
	}
	op := "="
	if x.Add {
		op = "+="
	}
	switch s.kind {
	case symAcc:
		v, err := f.fltE(x.Value)
		if err != nil {
			return err
		}
		target := "*acc"
		if f.accLocal {
			target = "_a"
		}
		f.wf("%s %s %s", target, op, v)
	case symFltLocal:
		v, err := f.fltE(x.Value)
		if err != nil {
			return err
		}
		f.wf("%s %s %s", s.goName, op, v)
	case symIntLocal:
		v, err := f.intE(x.Value)
		if err != nil {
			return err
		}
		f.wf("%s %s %s", s.goName, op, v)
	case symIntArr, symFltArr:
		if x.Index == nil {
			return fmt.Errorf("codegen: line %d: assignment to whole array %q", x.Line, x.Target)
		}
		idx, err := f.intE(x.Index)
		if err != nil {
			return err
		}
		var v string
		if s.kind == symFltArr {
			v, err = f.fltE(x.Value)
		} else {
			v, err = f.intE(x.Value)
		}
		if err != nil {
			return err
		}
		f.wf("%s[%s] %s %s", f.ref(s), idx, op, v)
	default:
		return fmt.Errorf("codegen: line %d: %q is not assignable", x.Line, x.Target)
	}
	return nil
}

// readsName reports whether the statements read the named local: an
// identifier reference, or a compound assignment to it. A plain `name = v`
// store is not a read (and not a Go "use").
func readsName(list []frontend.Stmt, name string) bool {
	for _, s := range list {
		switch x := s.(type) {
		case *frontend.AssignStmt:
			if x.Target == name && x.Add {
				return true
			}
			if exprReads(x.Index, name) || exprReads(x.Value, name) {
				return true
			}
		case *frontend.IfStmt:
			if exprReads(x.Cond, name) || readsName(x.Then, name) || readsName(x.Else, name) {
				return true
			}
		case *frontend.LetStmt:
			if exprReads(x.Init, name) {
				return true
			}
		case *frontend.SumDecl:
			if exprReads(x.Init, name) {
				return true
			}
		case *frontend.LoopStmt:
			if exprReads(x.Lo, name) || exprReads(x.Hi, name) || readsName(x.Body, name) {
				return true
			}
		}
	}
	return false
}

func exprReads(e frontend.Expr, name string) bool {
	switch x := e.(type) {
	case *frontend.Ident:
		return x.Name == name
	case *frontend.IndexExpr:
		return x.Array == name || exprReads(x.Index, name)
	case *frontend.BinExpr:
		return exprReads(x.L, name) || exprReads(x.R, name)
	case *frontend.UnaryExpr:
		return exprReads(x.X, name)
	}
	return false
}
