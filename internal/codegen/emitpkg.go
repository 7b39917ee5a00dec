package codegen

// Whole-package assembly: Env struct, NewEnv, Reset, accessors, the
// per-level function set, the Nest builder, RunSerial, and the registry
// init. Output goes through go/format, so emission here aims for
// correctness and determinism; gofmt owns the final layout.

import (
	"fmt"
	"strings"
)

func (em *emitter) emit() ([]byte, error) {
	em.header()
	em.envStruct()
	if err := em.newEnv(); err != nil {
		return nil, err
	}
	em.reset()
	em.accessors()
	if err := em.levelFns(); err != nil {
		return nil, err
	}
	if err := em.runSerial(); err != nil {
		return nil, err
	}
	if err := em.nestFn(); err != nil {
		return nil, err
	}
	if err := em.registration(); err != nil {
		return nil, err
	}
	return em.buf.Bytes(), nil
}

func (em *emitter) w(format string, args ...any) {
	fmt.Fprintf(&em.buf, format, args...)
	em.buf.WriteByte('\n')
}

// sigVars renders ", v0 int64, v1 int64" for loop variables of levels
// [0, upto) — the outer indices a level-upto function receives.
func (em *emitter) sigVars(upto int) string {
	var b strings.Builder
	for i := 0; i < upto; i++ {
		fmt.Fprintf(&b, ", %s int64", em.levels[i].goVar)
	}
	return b.String()
}

// idxArgs renders ", idx[0], idx[1]" for the same variables, as passed
// from a generic hook's index vector.
func idxArgs(upto int) string {
	var b strings.Builder
	for i := 0; i < upto; i++ {
		fmt.Fprintf(&b, ", idx[%d]", i)
	}
	return b.String()
}

// callVars renders ", i, j" for the same variables, as passed from
// RunSerial where they are in scope under their kernel names.
func (em *emitter) callVars(upto int) string {
	var b strings.Builder
	for i := 0; i < upto; i++ {
		fmt.Fprintf(&b, ", %s", em.levels[i].goVar)
	}
	return b.String()
}

func (em *emitter) header() {
	em.w("// Code generated by hbcc -emit-go from %s. DO NOT EDIT.", em.path)
	em.w("")
	em.w("// Package %sgen is the specialized Go compilation of kernel %q:", em.k.Name, em.k.Name)
	em.w("// monomorphic per-level loop functions over hoisted live-ins, an inlined")
	em.w("// promotion poll at chunk boundaries, and a flat padded context array for")
	em.w("// the serial driver — no interpreter machinery on the hot path.")
	em.w("package %sgen", em.k.Name)
	em.w("")
	em.w("import (")
	em.w("\t\"hbc\"")
	em.w("")
	em.w("\t\"hbc/gen\"")
	em.w(")")
	em.w("")
	if len(em.consts) > 0 {
		em.w("// Kernel header constants (`let` declarations), folded at generation")
		em.w("// time and hoisted to package scope.")
		em.w("const (")
		for _, c := range em.consts {
			em.w("\t%s int64 = %d", c.goName, c.val)
		}
		em.w(")")
		em.w("")
	}
}

func (em *emitter) envStruct() {
	em.w("// Env is the kernel's data environment: one flat typed struct in place")
	em.w("// of the interpreter's name-keyed maps. Dotted dataset names keep their")
	em.w("// source spelling with '.' written '_'.")
	em.w("type Env struct {")
	for _, f := range em.fields {
		switch f.kind {
		case symEnvScalar:
			em.w("\t%s int64", f.goName)
		case symIntArr:
			em.w("\t%s []int64", f.goName)
		case symFltArr:
			em.w("\t%s []float64", f.goName)
		}
	}
	em.w("}")
	em.w("")
}

func (em *emitter) newEnv() error {
	em.w("// NewEnv materializes the environment: datasets generated with the")
	em.w("// language's fixed seeds, arrays allocated and filled via Reset.")
	em.w("func NewEnv() *Env {")
	em.w("\te := &Env{}")
	for i, m := range em.matrices {
		var call string
		switch m.gen {
		case "arrowhead":
			call = fmt.Sprintf("gen.Arrowhead(%s)", m.args[0])
		case "powerlaw":
			call = fmt.Sprintf("gen.PowerLaw(%s, %s)", m.args[0], m.args[1])
		case "random":
			call = fmt.Sprintf("gen.Random(%s, %s)", m.args[0], m.args[1])
		case "cage":
			call = fmt.Sprintf("gen.Cage(%s)", m.args[0])
		default:
			return fmt.Errorf("codegen: unknown matrix generator %q", m.gen)
		}
		tmp := fmt.Sprintf("_m%d", i)
		em.w("\t%s := %s", tmp, call)
		em.w("\te.%s = %s.Rows", em.syms[m.src+".rows"].goName, tmp)
		em.w("\te.%s = %s.NNZ()", em.syms[m.src+".nnz"].goName, tmp)
		em.w("\te.%s = %s.RowPtr", em.syms[m.src+".rowPtr"].goName, tmp)
		em.w("\te.%s = gen.Int64s(%s.ColInd)", em.syms[m.src+".colInd"].goName, tmp)
		em.w("\te.%s = %s.Val", em.syms[m.src+".val"].goName, tmp)
	}
	for _, a := range em.arrays {
		elem := "int64"
		if a.float {
			elem = "float64"
		}
		em.w("\te.%s = make([]%s, %s)", a.goName, elem, a.lenExpr)
	}
	em.w("\te.Reset()")
	em.w("\treturn e")
	em.w("}")
	em.w("")
	return nil
}

func (em *emitter) reset() {
	em.w("// Reset restores every declared array to its initializer; dataset arrays")
	em.w("// are inputs and stay untouched, mirroring the interpreter's env.Reset.")
	em.w("func (e *Env) Reset() {")
	for _, a := range em.arrays {
		fill := a.init
		if fill == "" {
			fill = "0"
		}
		em.w("\tfor _i := range e.%s {", a.goName)
		em.w("\t\te.%s[_i] = %s", a.goName, fill)
		em.w("\t}")
	}
	em.w("}")
	em.w("")
}

func (em *emitter) accessors() {
	em.w("// Scalar returns a bound integer scalar by its kernel-source name.")
	em.w("func (e *Env) Scalar(name string) (int64, bool) {")
	var scalars []string
	for _, c := range em.consts {
		scalars = append(scalars, fmt.Sprintf("\tcase %q:\n\t\treturn %s, true", c.src, c.goName))
	}
	for _, f := range em.fields {
		if f.kind == symEnvScalar {
			scalars = append(scalars, fmt.Sprintf("\tcase %q:\n\t\treturn e.%s, true", f.src, f.goName))
		}
	}
	em.switchBody(scalars, "0, false")
	em.w("}")
	em.w("")
	em.w("// IntArray returns a bound int array (shared, not copied).")
	em.w("func (e *Env) IntArray(name string) ([]int64, bool) {")
	var ints []string
	for _, f := range em.fields {
		if f.kind == symIntArr {
			ints = append(ints, fmt.Sprintf("\tcase %q:\n\t\treturn e.%s, true", f.src, f.goName))
		}
	}
	em.switchBody(ints, "nil, false")
	em.w("}")
	em.w("")
	em.w("// FloatArray returns a bound float array (shared, not copied).")
	em.w("func (e *Env) FloatArray(name string) ([]float64, bool) {")
	var flts []string
	for _, f := range em.fields {
		if f.kind == symFltArr {
			flts = append(flts, fmt.Sprintf("\tcase %q:\n\t\treturn e.%s, true", f.src, f.goName))
		}
	}
	em.switchBody(flts, "nil, false")
	em.w("}")
	em.w("")
}

func (em *emitter) switchBody(cases []string, zero string) {
	if len(cases) > 0 {
		em.w("\tswitch name {")
		for _, c := range cases {
			em.w("%s", c)
		}
		em.w("\t}")
	}
	em.w("\treturn %s", zero)
}

// levelFns emits, outermost level first: bounds, then for interior levels
// the pre and leftover-tail hooks, for the leaf the serial body, and for
// every level its slice task.
func (em *emitter) levelFns() error {
	L := em.leafIdx()
	for k := range em.levels {
		lv := &em.levels[k]
		if err := em.boundsFn(k); err != nil {
			return err
		}
		if k < L {
			if len(lv.pre) > 0 {
				if err := em.preFn(k); err != nil {
					return err
				}
			}
			if len(lv.post) > 0 {
				if err := em.tailFn(k); err != nil {
					return err
				}
			}
			em.interiorSliceFn(k)
		} else {
			if err := em.bodyFn(k); err != nil {
				return err
			}
			if err := em.sliceFn(k); err != nil {
				return err
			}
		}
	}
	return nil
}

func (em *emitter) boundsFn(k int) error {
	f := em.newFn(k, false, "", "return")
	lo, err := f.intE(em.levels[k].stmt.Lo)
	if err != nil {
		return err
	}
	hi, err := f.intE(em.levels[k].stmt.Hi)
	if err != nil {
		return err
	}
	em.w("// boundsNest%d evaluates the [lo, hi) range of the level-%d loop over %s.", k, k, em.levels[k].stmt.Var)
	em.w("//")
	em.w("//hbc:noalloc")
	em.w("func boundsNest%d(e *Env%s) (int64, int64) {", k, em.sigVars(k))
	em.w("\treturn %s, %s", lo, hi)
	em.w("}")
	em.w("")
	return nil
}

func (em *emitter) preFn(k int) error {
	f := em.newFn(k, true, "", "return")
	f.indent = 1
	f.scanStmts(em.levels[k].pre)
	f.emitHoists()
	if err := f.stmts(em.levels[k].pre); err != nil {
		return err
	}
	em.w("// preNest%d runs the statements before the nested loop in one level-%d", k, k)
	em.w("// iteration.")
	em.w("//")
	em.w("//hbc:noalloc")
	em.w("func preNest%d(e *Env%s) {", k, em.sigVars(k+1))
	em.buf.Write(f.b.Bytes())
	em.w("}")
	em.w("")
	return nil
}

func (em *emitter) tailFn(k int) error {
	lv := &em.levels[k]
	f := em.newFn(k, true, lv.sumName, "return")
	f.indent = 1
	f.scanStmts(lv.post)
	f.emitHoists()
	if err := f.stmts(lv.post); err != nil {
		return err
	}
	acc := ""
	if lv.sumName != "" {
		acc = ", acc *float64"
	}
	em.w("// leftoverTailNest%d is the per-iteration tail after the nested loop —", k)
	em.w("// the leftover task split from the slice so a promoted continuation can")
	em.w("// run it after joining the child reduction.")
	em.w("//")
	em.w("//hbc:noalloc")
	em.w("func leftoverTailNest%d(e *Env%s%s) {", k, em.sigVars(k+1), acc)
	em.buf.Write(f.b.Bytes())
	em.w("}")
	em.w("")
	return nil
}

func (em *emitter) bodyFn(k int) error {
	lv := &em.levels[k]
	f := em.newFn(k, true, em.leafReduce(), "continue")
	f.indent = 2
	f.scanStmts(lv.pre)
	acc := ""
	if em.leafReduce() != "" {
		acc = ", acc *float64"
	}
	em.w("// bodyNest%d runs iterations [lo, hi) of the leaf loop over %s serially:", k, lv.stmt.Var)
	em.w("// the closure-free leaf body shared by the serial driver and the")
	em.w("// runtime's non-slice paths.")
	em.w("//")
	em.w("//hbc:noalloc")
	em.w("func bodyNest%d(e *Env%s, lo, hi int64%s) {", k, em.sigVars(k), acc)
	hf := &fn{em: em, hoist: f.hoist, indent: 1}
	hf.emitHoists()
	em.buf.Write(hf.b.Bytes())
	v := lv.goVar
	em.w("\tfor %s := lo; %s < hi; %s++ {", v, v, v)
	if err := f.stmts(lv.pre); err != nil {
		return err
	}
	em.buf.Write(f.b.Bytes())
	em.w("\t}")
	em.w("}")
	em.w("")
	return nil
}

func (em *emitter) sliceFn(k int) error {
	lv := &em.levels[k]
	reduces := em.leafReduce() != ""
	f := em.newFn(k, true, em.leafReduce(), "continue")
	f.indent = 3
	f.accLocal = true
	f.scanStmts(lv.pre)
	acc := ""
	if reduces {
		acc = ", acc *float64"
	}
	em.w("// sliceTaskNest%d is the monomorphic slice-task entry for the leaf loop:", k)
	em.w("// it owns the chunked iteration loop, spends the private iteration")
	em.w("// budget _r (passed in and returned, so it stays in a register down the")
	em.w("// chain), and inlines the promotion poll at chunk boundaries, returning")
	em.w("// the next unstarted iteration so a heartbeat can promote the remaining")
	em.w("// slice. A chunk that ends at hi leaves the budget at zero and returns")
	em.w("// without polling: the enclosing latch takes that poll. Cancellation is")
	em.w("// checked wherever a chunk is drawn; a chunk carried in from the")
	em.w("// enclosing iteration was checked where it was drawn.")
	if reduces {
		em.w("// The reduction accumulates in the local _a, stored back to *acc on")
		em.w("// every return.")
	}
	em.w("//")
	em.w("//hbc:noalloc")
	em.w("func sliceTaskNest%d(e *Env%s, iv, hi int64%s, _r int64, rt hbc.SliceRT) (int64, int64) {", k, em.sigVars(k), acc)
	hf := &fn{em: em, hoist: f.hoist, indent: 1}
	hf.emitHoists()
	em.buf.Write(hf.b.Bytes())
	if reduces {
		em.w("\t_a := *acc")
	}
	// ret writes a return at depth tabs, storing the live-out back first.
	ret := func(depth int) {
		ind := strings.Repeat("\t", depth)
		if reduces {
			em.w("%s*acc = _a", ind)
		}
		em.w("%sreturn iv, _r", ind)
	}
	v := lv.goVar
	em.w("\tfor iv < hi {")
	em.w("\t\tif _r <= 0 {")
	em.w("\t\t\tif rt.Aborted() {")
	ret(4)
	em.w("\t\t\t}")
	em.w("\t\t\t_r = rt.Chunk(hi - iv)")
	em.w("\t\t}")
	em.w("\t\t_n := _r")
	em.w("\t\tif _left := hi - iv; _left < _n {")
	em.w("\t\t\t_n = _left")
	em.w("\t\t}")
	em.w("\t\tfor %s := iv; %s < iv+_n; %s++ {", v, v, v)
	if err := f.stmts(lv.pre); err != nil {
		return err
	}
	em.buf.Write(f.b.Bytes())
	em.w("\t\t}")
	em.w("\t\tiv += _n")
	em.w("\t\t_r -= _n")
	em.w("\t\tif _r == 0 && iv < hi {")
	em.w("\t\t\t_r = rt.Chunk(hi - iv)")
	em.w("\t\t\tif rt.Poll() || rt.Aborted() {")
	ret(4)
	em.w("\t\t\t}")
	em.w("\t\t}")
	em.w("\t}")
	ret(1)
	em.w("}")
	em.w("")
	return nil
}

// interiorSliceFn emits the slice task of interior level k: whole
// iterations with the child's slice task called directly, the latch
// spending the same budget as the leaf, and a stop inside an iteration
// recorded through rt.Stop for the runtime to finish.
func (em *emitter) interiorSliceFn(k int) {
	lv := &em.levels[k]
	c := k + 1
	childAcc := c == em.leafIdx() && em.leafReduce() != ""
	accArg := ""
	if childAcc {
		accArg = ", _acc"
	}
	em.w("// sliceTaskNest%d is the monomorphic slice-task entry for the level-%d loop", k, k)
	em.w("// over %s: it runs whole iterations — hooks, the nested loop's bounds,", lv.stmt.Var)
	em.w("// and a direct call of sliceTaskNest%d, which spends and returns the", c)
	em.w("// budget _r — and spends _r at its latch: an iteration whose nested loop")
	em.w("// ran nothing costs one unit, and a budget at zero polls with iterations")
	em.w("// left or, at hi, is returned for the runtime to poll. Cancellation is")
	em.w("// checked wherever a chunk is drawn. A nested stop is recorded with")
	em.w("// rt.Stop and the in-flight iteration returned for the runtime to")
	em.w("// finish.")
	em.w("//")
	em.w("//hbc:noalloc")
	em.w("func sliceTaskNest%d(e *Env%s, iv, hi int64, _r int64, rt hbc.SliceRT) (int64, int64) {", k, em.sigVars(k))
	if childAcc {
		em.w("\t_acc := rt.Acc(%d).(*float64)", c)
	}
	em.w("\tfor iv < hi {")
	em.w("\t\t%s := iv", lv.goVar)
	if len(lv.pre) > 0 {
		em.w("\t\tpreNest%d(e%s)", k, em.callVars(k+1))
	}
	em.w("\t\t_lo, _hi := boundsNest%d(e%s)", c, em.callVars(k+1))
	if childAcc {
		em.w("\t\t*_acc = 0")
	}
	em.w("\t\tif _lo < _hi {")
	em.w("\t\t\tvar _iv int64")
	em.w("\t\t\tif _iv, _r = sliceTaskNest%d(e%s, _lo, _hi%s, _r, rt); _iv < _hi {", c, em.callVars(k+1), accArg)
	em.w("\t\t\t\trt.Stop(%d, _lo, _iv, _hi)", c)
	em.w("\t\t\t\treturn iv, _r")
	em.w("\t\t\t}")
	em.w("\t\t}")
	if len(lv.post) > 0 {
		em.w("\t\tleftoverTailNest%d(e%s%s)", k, em.callVars(k+1), accArg)
	}
	em.w("\t\tiv++")
	em.w("\t\tif _lo >= _hi {")
	em.w("\t\t\tif _r <= 0 {")
	em.w("\t\t\t\tif rt.Aborted() {")
	em.w("\t\t\t\t\treturn iv, _r")
	em.w("\t\t\t\t}")
	em.w("\t\t\t\t_r = rt.Chunk(hi - iv)")
	em.w("\t\t\t}")
	em.w("\t\t\t_r--")
	em.w("\t\t}")
	em.w("\t\tif _r == 0 {")
	em.w("\t\t\tif iv >= hi {")
	em.w("\t\t\t\treturn iv, _r")
	em.w("\t\t\t}")
	em.w("\t\t\t_r = rt.Chunk(hi - iv)")
	em.w("\t\t\tif rt.Poll() || rt.Aborted() {")
	em.w("\t\t\t\treturn iv, _r")
	em.w("\t\t\t}")
	em.w("\t\t}")
	em.w("\t}")
	em.w("\treturn iv, _r")
	em.w("}")
	em.w("")
}

func (em *emitter) runSerial() error {
	L := em.leafIdx()
	em.w("// ctx is one level of RunSerial's flat loop context — bounds, induction")
	em.w("// variable, accumulator — padded so adjacent levels never share a cache")
	em.w("// line.")
	em.w("//")
	em.w("//hbc:padded")
	em.w("type ctx struct {")
	em.w("\t_          [64]byte")
	em.w("\tlo, iv, hi int64")
	em.w("\tacc        float64")
	em.w("\t_          [64]byte")
	em.w("}")
	em.w("")
	em.w("// RunSerial executes the kernel sequentially through the specialized")
	em.w("// driver: statically dispatched calls over a flat context array, in")
	em.w("// place of the interpreter's closure tree and per-call frames.")
	em.w("//")
	em.w("//hbc:noalloc")
	em.w("func RunSerial(e *Env) float64 {")
	em.w("\tvar _cs [%d]ctx", L+1)
	em.w("\t_cs[0].lo, _cs[0].hi = boundsNest0(e)")
	var rec func(k, depth int)
	rec = func(k, depth int) {
		ind := strings.Repeat("\t", depth)
		lv := &em.levels[k]
		if k == L {
			if em.leafReduce() != "" {
				em.w("%s_cs[%d].acc = 0", ind, k)
				em.w("%sbodyNest%d(e%s, _cs[%d].lo, _cs[%d].hi, &_cs[%d].acc)", ind, k, em.callVars(k), k, k, k)
			} else {
				em.w("%sbodyNest%d(e%s, _cs[%d].lo, _cs[%d].hi)", ind, k, em.callVars(k), k, k)
			}
			return
		}
		em.w("%sfor _cs[%d].iv = _cs[%d].lo; _cs[%d].iv < _cs[%d].hi; _cs[%d].iv++ {", ind, k, k, k, k, k)
		em.w("%s\t%s := _cs[%d].iv", ind, lv.goVar, k)
		if len(lv.pre) > 0 {
			em.w("%s\tpreNest%d(e%s)", ind, k, em.callVars(k+1))
		}
		em.w("%s\t_cs[%d].lo, _cs[%d].hi = boundsNest%d(e%s)", ind, k+1, k+1, k+1, em.callVars(k+1))
		rec(k+1, depth+1)
		if len(lv.post) > 0 {
			if lv.sumName != "" {
				em.w("%s\tleftoverTailNest%d(e%s, &_cs[%d].acc)", ind, k, em.callVars(k+1), k+1)
			} else {
				em.w("%s\tleftoverTailNest%d(e%s)", ind, k, em.callVars(k+1))
			}
		}
		em.w("%s}", ind)
	}
	rec(0, 1)
	if L == 0 && em.leafReduce() != "" {
		em.w("\treturn _cs[0].acc")
	} else {
		em.w("\treturn 0")
	}
	em.w("}")
	em.w("")
	return nil
}

func (em *emitter) nestFn() error {
	L := em.leafIdx()
	em.w("// Nest builds the specialized loop nest over e. The closures here only")
	em.w("// adapt the generic hook signatures; all kernel work runs in the")
	em.w("// monomorphic functions above.")
	em.w("func Nest(e *Env) *hbc.Nest {")
	for k := L; k >= 0; k-- {
		lv := &em.levels[k]
		em.w("\tl%d := &hbc.Loop{", k)
		em.w("\t\tName: %q,", lv.stmt.Var)
		idxParam := "idx"
		if k == 0 {
			idxParam = "_"
		}
		em.w("\t\tBounds: func(_ any, %s []int64) (int64, int64) {", idxParam)
		em.w("\t\t\treturn boundsNest%d(e%s)", k, idxArgs(k))
		em.w("\t\t},")
		if k == L {
			reduces := em.leafReduce() != ""
			accParam := "acc"
			accArg := ", acc.(*float64)"
			if !reduces {
				accParam = "_"
				accArg = ""
			}
			em.w("\t\tBody: func(_ any, %s []int64, lo, hi int64, %s any) {", idxParam, accParam)
			em.w("\t\t\tbodyNest%d(e%s, lo, hi%s)", k, idxArgs(k), accArg)
			em.w("\t\t},")
			em.w("\t\tSlice: func(_ any, %s []int64, iv, hi int64, %s any, rt hbc.SliceRT) int64 {", idxParam, accParam)
			em.w("\t\t\tb := rt.Budget()")
			em.w("\t\t\tiv, *b = sliceTaskNest%d(e%s, iv, hi%s, *b, rt)", k, idxArgs(k), accArg)
			em.w("\t\t\treturn iv")
			em.w("\t\t},")
			if reduces {
				em.w("\t\tReduce: gen.SumFloat64(),")
			}
		} else {
			em.w("\t\tChildren: []*hbc.Loop{l%d},", k+1)
			em.w("\t\tSlice: func(_ any, %s []int64, iv, hi int64, _ any, rt hbc.SliceRT) int64 {", idxParam)
			em.w("\t\t\tb := rt.Budget()")
			em.w("\t\t\tiv, *b = sliceTaskNest%d(e%s, iv, hi, *b, rt)", k, idxArgs(k))
			em.w("\t\t\treturn iv")
			em.w("\t\t},")
			if len(lv.pre) > 0 {
				em.w("\t\tPre: func(_ any, idx []int64, _ any) {")
				em.w("\t\t\tpreNest%d(e%s)", k, idxArgs(k+1))
				em.w("\t\t},")
			}
			if len(lv.post) > 0 {
				childParam := "children"
				accArg := ""
				if lv.sumName != "" {
					accArg = ", children[0].(*float64)"
				} else {
					childParam = "_"
				}
				em.w("\t\tPost: func(_ any, idx []int64, _ any, %s []any) {", childParam)
				em.w("\t\t\tleftoverTailNest%d(e%s%s)", k, idxArgs(k+1), accArg)
				em.w("\t\t},")
			}
		}
		em.w("\t}")
	}
	em.w("\treturn &hbc.Nest{Name: %q, Root: l0}", em.k.Name)
	em.w("}")
	em.w("")
	return nil
}

func (em *emitter) registration() error {
	em.w("func init() {")
	em.w("\tgen.Register(&gen.Kernel{")
	em.w("\t\tName:      %q,", em.k.Name)
	em.w("\t\tSource:    %q,", em.path)
	em.w("\t\tSourceSHA: srcSHA,")
	em.w("\t\tFactsJSON: factsJSON,")
	em.w("\t\tNewEnv:    func() gen.Env { return NewEnv() },")
	em.w("\t\tNest:      func(e gen.Env) *hbc.Nest { return Nest(e.(*Env)) },")
	em.w("\t\tRunSerial: func(e gen.Env) float64 { return RunSerial(e.(*Env)) },")
	em.w("\t})")
	em.w("}")
	em.w("")
	em.w("// srcSHA is the SHA-256 of the kernel source this package was generated")
	em.w("// from; consumers verify it before preferring the generated path.")
	em.w("const srcSHA = %q", em.sha)
	em.w("")
	js, err := em.facts.JSON()
	if err != nil {
		return fmt.Errorf("codegen: serializing facts: %w", err)
	}
	if strings.Contains(string(js), "`") {
		return fmt.Errorf("codegen: facts JSON contains a backquote")
	}
	em.w("// factsJSON is the kernel's analysis fact record (analysis.Facts),")
	em.w("// captured at generation time.")
	em.w("const factsJSON = `%s`", strings.TrimRight(string(js), "\n"))
	return nil
}
