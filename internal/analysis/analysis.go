// Package analysis statically verifies that kernels are safe to run under
// heartbeat scheduling: that every loop annotated `parallel for` really is
// DOALL. The paper's compiler — like the OpenMP toolchain it extends —
// trusts the annotation; an unsound `parallel for` silently races. This
// pass proves (or refutes, with line-numbered diagnostics) independence of
// parallel iterations before the kernel reaches the middle-end:
//
//   - Array accesses are extracted into per-iteration read/write sets and
//     tested pairwise with affine dependence tests (ZIV, strong SIV with
//     exact and banded offsets, GCD). Non-affine subscripts — indirect
//     accesses like x[colInd[j]] — are conservatively reported as warnings
//     when the array is written anywhere in the kernel.
//   - Reduction discipline: `sum` accumulators start at the identity, are
//     updated only with +=, are claimed by exactly one reduce() loop, and
//     are never read inside the reducing loop (a read there observes a
//     task-private partial sum).
//   - Structure: interior parallel bodies follow the pre/loop/post shape,
//     loop variables are never written, and parallel-loop bounds reference
//     only header names and enclosing parallel loop variables.
//
// The same rules run in cmd/hbcc (the -vet flag, on by default), in
// `hbcc vet` (a standalone tree checker), and — for hand-built nests on the
// Go API path — as VetNest inside hbc.Compile.
package analysis

import (
	"fmt"
	"sort"
	"strings"

	"hbc/internal/frontend"
)

// Severity grades a diagnostic.
type Severity int

const (
	// Warn marks findings the analysis cannot decide (non-affine
	// subscripts, possible aliasing). They do not fail vetting.
	Warn Severity = iota
	// Err marks proven violations: the kernel must not run in parallel.
	Err
)

// Diag is one finding, addressable by file, line, and (when the source
// position carries one) column.
type Diag struct {
	File     string
	Line     int
	Col      int // 0 when the frontend has no column information
	Rule     string
	Severity Severity
	Msg      string
}

func (d Diag) String() string {
	sev := "warning"
	if d.Severity == Err {
		sev = "error"
	}
	pos := fmt.Sprintf("line %d", d.Line)
	if d.File != "" {
		pos = fmt.Sprintf("%s:%d", d.File, d.Line)
	}
	if d.Col > 0 {
		pos = fmt.Sprintf("%s:%d", pos, d.Col)
	}
	return fmt.Sprintf("%s: %s: %s [%s]", pos, sev, d.Msg, d.Rule)
}

// Diagnostic rules.
const (
	RuleStructure   = "structure"          // shape/scoping violations
	RuleBoundsScope = "bounds-scope"       // parallel bounds referencing accumulators
	RuleLoopVar     = "loop-var-write"     // assignment to a loop variable
	RuleUndefined   = "undefined"          // unresolved name
	RuleWriteWrite  = "write-write"        // two parallel iterations write one element
	RuleLoopCarried = "loop-carried"       // cross-iteration read/write dependence
	RuleMayAlias    = "may-alias"          // affine but undecidable pair
	RuleNonAffine   = "non-affine"         // subscript outside the affine fragment
	RuleRedAssign   = "reduction-assign"   // accumulator written with =
	RuleRedIdentity = "reduction-identity" // sum initializer is not the identity
	RuleRedRead     = "reduction-read"     // accumulator read inside its reduce loop
	RuleNestShape   = "nest-shape"         // loopnest.Nest structural violation
	RuleNestReduce  = "nest-reduce"        // loopnest.Reduction contract violation
	RuleNestNames   = "nest-names"         // duplicate loop names in a nest
)

// HasErrors reports whether any diagnostic is an error.
func HasErrors(ds []Diag) bool {
	for _, d := range ds {
		if d.Severity == Err {
			return true
		}
	}
	return false
}

// --- vetter state -------------------------------------------------------------

type symKind int

const (
	kScalarConst symKind = iota // header scalar with a known value
	kScalarSym                  // dataset scalar (A.rows): invariant, unknown
	kIntArr
	kFltArr
	kLoopVar
	kLocal
	kAccClaimed // accumulator, inside its reducing loop
	kAcc        // accumulator, in the post statements
)

type symInfo struct {
	kind     symKind
	val      int64 // kScalarConst
	parDepth int   // kLocal: parallel nesting depth at declaration
}

// loopRec is one enclosing loop on the walk stack.
type loopRec struct {
	v        string
	parallel bool
	stmt     *frontend.LoopStmt
	depth    int // index in the stack
	lo, hi   int64
	known    bool
}

// pathEnt snapshots one stack entry into an access's context.
type pathEnt struct {
	v      string
	depth  int
	lo, hi int64
	known  bool
}

// inside reports whether this loop is strictly nested within P.
func (e pathEnt) inside(P *loopRec) bool { return e.depth > P.depth }

// access is one array read or write with its affine form and loop context.
type access struct {
	array string
	write bool
	sub   frontend.Expr
	line  int
	form  *aff // nil: non-affine
	path  []pathEnt
}

type vetter struct {
	file       string
	diags      []Diag
	syms       map[string]symInfo
	stack      []loopRec
	parloops   []loopRec // every parallel loop seen, in source order
	accesses   []*access
	written    map[string]bool
	localForms map[string]*aff
	seen       map[string]bool // diagnostic dedupe
	// resolveDataset folds dataset scalars with statically known values
	// (generator row counts, arrowhead's closed-form nnz) into constants.
	// Off for Vet — diagnostics must not depend on generator internals —
	// and on for the fact engine, which wants the tightest ranges it can
	// prove. See datasetScalars.
	resolveDataset bool
}

func (v *vetter) addf(sev Severity, line int, rule, format string, args ...any) {
	d := Diag{File: v.file, Line: line, Rule: rule, Severity: sev, Msg: fmt.Sprintf(format, args...)}
	key := fmt.Sprintf("%d|%s|%s", d.Line, d.Rule, d.Msg)
	if v.seen[key] {
		return
	}
	v.seen[key] = true
	v.diags = append(v.diags, d)
}

func (v *vetter) errf(line int, rule, format string, args ...any) {
	v.addf(Err, line, rule, format, args...)
}

func (v *vetter) warnf(line int, rule, format string, args ...any) {
	v.addf(Warn, line, rule, format, args...)
}

func (v *vetter) parDepth() int {
	n := 0
	for _, l := range v.stack {
		if l.parallel {
			n++
		}
	}
	return n
}

// Vet analyzes a parsed kernel and returns its findings, errors and
// warnings interleaved in source order per check phase. file labels the
// diagnostics; pass "" for unnamed sources. If k carries a File (set by
// frontend.ParseFile) and file is empty, the kernel's own name is used.
func Vet(file string, k *frontend.Kernel) []Diag {
	return runVet(file, k, false).diags
}

// runVet performs the full analysis walk and returns the vetter with its
// collected state (accesses, loop records, symbol table) intact — the shared
// substrate of Vet and the fact engine's passes.
func runVet(file string, k *frontend.Kernel, resolveDataset bool) *vetter {
	if file == "" {
		file = k.File
	}
	v := &vetter{
		file:           file,
		syms:           map[string]symInfo{},
		written:        map[string]bool{},
		localForms:     map[string]*aff{},
		seen:           map[string]bool{},
		resolveDataset: resolveDataset,
	}
	for _, d := range k.Decls {
		v.decl(d)
	}
	if k.Root == nil {
		v.errf(1, RuleStructure, "kernel %s has no top-level loop", k.Name)
		return v
	}
	if !k.Root.Parallel {
		v.errf(k.Root.Line, RuleStructure, "the top-level loop must be `parallel for`")
	}
	// A top-level reduce implicitly declares the kernel's result
	// accumulator: it is claimed by the root loop (+= only, never read),
	// and its merged value is what Run returns.
	if k.Root.Reduce != "" {
		if _, dup := v.syms[k.Root.Reduce]; dup {
			v.errf(k.Root.Line, RuleStructure, "%q shadows an existing name", k.Root.Reduce)
		} else {
			v.syms[k.Root.Reduce] = symInfo{kind: kAccClaimed}
			defer delete(v.syms, k.Root.Reduce)
		}
	}
	v.loop(k.Root)
	v.dependences()
	sortDiags(v.diags)
	return v
}

// sortDiags orders diagnostics deterministically: file, line, column,
// severity (errors first), rule, then message — so repeated runs and CI
// diffs are stable regardless of pass ordering.
func sortDiags(ds []Diag) {
	sort.SliceStable(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Severity != b.Severity {
			return a.Severity > b.Severity
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
}

// --- declarations -------------------------------------------------------------

// constInt folds a header-level constant expression using declared scalars.
func (v *vetter) constInt(e frontend.Expr) (int64, bool) {
	switch x := e.(type) {
	case *frontend.IntLit:
		return x.Value, true
	case *frontend.Ident:
		if s, ok := v.syms[x.Name]; ok && s.kind == kScalarConst {
			return s.val, true
		}
		return 0, false
	case *frontend.UnaryExpr:
		if x.Op == "-" {
			n, ok := v.constInt(x.X)
			return -n, ok
		}
	case *frontend.BinExpr:
		l, lok := v.constInt(x.L)
		r, rok := v.constInt(x.R)
		if !lok || !rok {
			return 0, false
		}
		switch x.Op {
		case "+":
			return l + r, true
		case "-":
			return l - r, true
		case "*":
			return l * r, true
		case "/":
			if r == 0 {
				return 0, false
			}
			return l / r, true
		case "%":
			if r == 0 {
				return 0, false
			}
			return l % r, true
		}
	}
	return 0, false
}

func (v *vetter) declareName(name string, line int, s symInfo) {
	if _, dup := v.syms[name]; dup {
		v.errf(line, RuleStructure, "%q redeclared", name)
		return
	}
	v.syms[name] = s
}

func (v *vetter) decl(d frontend.Decl) {
	switch x := d.(type) {
	case *frontend.LetDecl:
		val, ok := v.constInt(x.Init)
		if !ok {
			v.errf(x.Line, RuleStructure, "initializer of %q is not a constant expression", x.Name)
		}
		v.declareName(x.Name, x.Line, symInfo{kind: kScalarConst, val: val})
	case *frontend.MatrixDecl:
		switch x.Gen {
		case "arrowhead", "powerlaw", "random", "cage":
		default:
			v.errf(x.Line, RuleStructure, "unknown matrix generator %q", x.Gen)
		}
		rows, nnz := v.datasetScalars(x)
		if rows != nil {
			v.declareName(x.Name+".rows", x.Line, symInfo{kind: kScalarConst, val: *rows})
		} else {
			v.declareName(x.Name+".rows", x.Line, symInfo{kind: kScalarSym})
		}
		if nnz != nil {
			v.declareName(x.Name+".nnz", x.Line, symInfo{kind: kScalarConst, val: *nnz})
		} else {
			v.declareName(x.Name+".nnz", x.Line, symInfo{kind: kScalarSym})
		}
		v.declareName(x.Name+".rowPtr", x.Line, symInfo{kind: kIntArr})
		v.declareName(x.Name+".colInd", x.Line, symInfo{kind: kIntArr})
		v.declareName(x.Name+".val", x.Line, symInfo{kind: kFltArr})
	case *frontend.ArrayDecl:
		kind := kIntArr
		if x.Float {
			kind = kFltArr
		}
		v.declareName(x.Name, x.Line, symInfo{kind: kind})
	}
}

// datasetScalars returns the statically known values of a matrix's .rows
// and .nnz fields (nil = unknown), available only in resolveDataset mode.
// Every generator takes its row count as the first argument; arrowhead
// additionally has a closed-form nonzero count (a full first row and
// column plus the diagonal: 3n-2). The other generators draw nonzeros from
// a seeded RNG, so their nnz stays symbolic.
func (v *vetter) datasetScalars(x *frontend.MatrixDecl) (rows, nnz *int64) {
	if !v.resolveDataset || len(x.Args) == 0 {
		return nil, nil
	}
	n, ok := v.constInt(x.Args[0])
	if !ok || n < 0 {
		return nil, nil
	}
	rows = &n
	if x.Gen == "arrowhead" {
		v := 3*n - 2
		if n == 0 {
			v = 0
		}
		nnz = &v
	}
	return rows, nnz
}

// --- loop structure -----------------------------------------------------------

// loop vets one parallel loop: bounds, body shape, reduction wiring, then
// recurses. Mirrors the shape rules of frontend.Compile so `hbcc vet` reports
// them without materializing datasets.
func (v *vetter) loop(l *frontend.LoopStmt) {
	// Parallel bounds are evaluated against the enclosing parallel indices
	// only; vet them before the loop variable enters scope.
	v.boundsExpr(l.Lo, l)
	v.boundsExpr(l.Hi, l)
	lo, lok := v.constInt(l.Lo)
	hi, hok := v.constInt(l.Hi)

	if _, dup := v.syms[l.Var]; dup {
		v.errf(l.Line, RuleStructure, "%q shadows an existing name", l.Var)
		return
	}
	v.syms[l.Var] = symInfo{kind: kLoopVar}
	rec := loopRec{
		v: l.Var, parallel: true, stmt: l, depth: len(v.stack),
		lo: lo, hi: hi, known: lok && hok,
	}
	v.stack = append(v.stack, rec)
	v.parloops = append(v.parloops, rec)
	defer func() {
		v.stack = v.stack[:len(v.stack)-1]
		delete(v.syms, l.Var)
	}()

	// Split the body around the nested parallel loop, as compilation does.
	var pre, post []frontend.Stmt
	var child *frontend.LoopStmt
	var sum *frontend.SumDecl
	for _, s := range l.Body {
		switch x := s.(type) {
		case *frontend.LoopStmt:
			if x.Parallel {
				if child != nil {
					v.errf(x.Line, RuleStructure, "at most one nested parallel loop per body")
					continue
				}
				child = x
				continue
			}
		case *frontend.SumDecl:
			if child != nil {
				v.errf(x.Line, RuleStructure, "sum must be declared before the nested parallel loop")
				continue
			}
			if sum != nil {
				v.errf(x.Line, RuleStructure, "at most one sum per loop body")
				continue
			}
			sum = x
			continue
		}
		if child == nil {
			pre = append(pre, s)
		} else {
			post = append(post, s)
		}
	}

	if sum != nil {
		switch init := sum.Init.(type) {
		case *frontend.FloatLit:
			if init.Value != 0 {
				v.errf(sum.Line, RuleRedIdentity,
					"sum %q must start at the reduction identity 0.0 (task-private accumulators merge at joins)", sum.Name)
			}
		case *frontend.IntLit:
			if init.Value != 0 {
				v.errf(sum.Line, RuleRedIdentity,
					"sum %q must start at the reduction identity 0.0 (task-private accumulators merge at joins)", sum.Name)
			}
		default:
			v.errf(sum.Line, RuleRedIdentity, "sum %q initializer must be the literal 0.0", sum.Name)
		}
	}

	if child == nil {
		if sum != nil {
			v.errf(sum.Line, RuleStructure, "sum %q declared without a nested parallel loop to reduce it", sum.Name)
		}
		v.stmts(pre)
		return
	}

	if l.Reduce != "" {
		v.errf(l.Line, RuleStructure,
			"reduce on an interior loop is not supported; declare a sum and reduce the inner loop")
	}
	if child.Reduce != "" && (sum == nil || child.Reduce != sum.Name) {
		v.errf(child.Line, RuleStructure, "reduce(%s) does not match a declared sum", child.Reduce)
	}
	if sum != nil && child.Reduce == "" {
		v.errf(sum.Line, RuleStructure, "sum %q declared but the nested loop does not reduce it", sum.Name)
	}

	v.stmts(pre)

	// The accumulator is visible to the child loop (claimed: += only, no
	// reads) and to the post statements (readable, still no =).
	if sum != nil {
		if _, dup := v.syms[sum.Name]; dup {
			v.errf(sum.Line, RuleStructure, "%q shadows an existing name", sum.Name)
			sum = nil
		}
	}
	if sum != nil {
		v.syms[sum.Name] = symInfo{kind: kAccClaimed}
	}
	v.loop(child)
	if sum != nil {
		v.syms[sum.Name] = symInfo{kind: kAcc}
	}
	v.stmts(post)
	if sum != nil {
		delete(v.syms, sum.Name)
	}
}

// boundsExpr vets a parallel loop bound: the names it may use are header
// scalars, arrays (indexed), and enclosing parallel loop variables — the
// only values the runtime supplies when it re-evaluates bounds on a stolen
// task. Locals are out of scope here by the language's scoping rules; an
// accumulator is in scope but meaningless, so it gets its own rule.
func (v *vetter) boundsExpr(e frontend.Expr, l *frontend.LoopStmt) {
	switch x := e.(type) {
	case *frontend.Ident:
		s, ok := v.syms[x.Name]
		if !ok {
			v.errf(x.Line, RuleUndefined, "undefined name %q in loop bounds", x.Name)
			return
		}
		switch s.kind {
		case kAcc, kAccClaimed:
			v.errf(x.Line, RuleBoundsScope,
				"bounds of parallel loop %q may not reference accumulator %q", l.Var, x.Name)
		case kIntArr, kFltArr:
			v.errf(x.Line, RuleStructure, "%q is an array; index it", x.Name)
		}
	case *frontend.IndexExpr:
		v.indexBase(x)
		v.boundsExpr(x.Index, l)
		v.recordAccess(x, false)
	case *frontend.BinExpr:
		v.boundsExpr(x.L, l)
		v.boundsExpr(x.R, l)
	case *frontend.UnaryExpr:
		v.boundsExpr(x.X, l)
	}
}

// --- statements ---------------------------------------------------------------

// stmts vets a statement list in a fresh lexical scope, mirroring the
// compiler's scoping: locals declared here vanish when the list ends.
func (v *vetter) stmts(list []frontend.Stmt) {
	var declared []string
	for _, s := range list {
		declared = append(declared, v.stmt(s)...)
	}
	for _, n := range declared {
		delete(v.syms, n)
		delete(v.localForms, n)
	}
}

// stmt vets one statement, returning names it declared in this scope.
func (v *vetter) stmt(s frontend.Stmt) []string {
	switch x := s.(type) {
	case *frontend.LetStmt:
		v.expr(x.Init)
		if _, dup := v.syms[x.Name]; dup {
			v.errf(x.Line, RuleStructure, "%q shadows an existing name", x.Name)
			return nil
		}
		v.syms[x.Name] = symInfo{kind: kLocal, parDepth: v.parDepth()}
		if f, ok := v.affineOf(x.Init); ok {
			v.localForms[x.Name] = f
		}
		return []string{x.Name}
	case *frontend.AssignStmt:
		v.assign(x)
		return nil
	case *frontend.IfStmt:
		v.expr(x.Cond)
		v.stmts(x.Then)
		v.stmts(x.Else)
		return nil
	case *frontend.BreakStmt:
		return nil
	case *frontend.SumDecl:
		v.errf(x.Line, RuleStructure, "sum is only valid directly before a nested parallel loop")
		return nil
	case *frontend.LoopStmt:
		if x.Parallel {
			v.errf(x.Line, RuleStructure, "parallel loops may not appear inside serial statements")
			return nil
		}
		v.serialFor(x)
		return nil
	}
	return nil
}

func (v *vetter) serialFor(x *frontend.LoopStmt) {
	if x.Reduce != "" {
		v.errf(x.Line, RuleStructure, "reduce is only valid on parallel loops")
	}
	v.expr(x.Lo)
	v.expr(x.Hi)
	lo, lok := v.constInt(x.Lo)
	hi, hok := v.constInt(x.Hi)
	if _, dup := v.syms[x.Var]; dup {
		v.errf(x.Line, RuleStructure, "%q shadows an existing name", x.Var)
		return
	}
	v.syms[x.Var] = symInfo{kind: kLoopVar}
	v.stack = append(v.stack, loopRec{
		v: x.Var, stmt: x, depth: len(v.stack), lo: lo, hi: hi, known: lok && hok,
	})
	v.stmts(x.Body)
	v.stack = v.stack[:len(v.stack)-1]
	delete(v.syms, x.Var)
}

func (v *vetter) assign(x *frontend.AssignStmt) {
	v.expr(x.Value)
	s, ok := v.syms[x.Target]
	if !ok {
		v.errf(x.Line, RuleUndefined, "undefined name %q", x.Target)
		return
	}
	if x.Index != nil {
		v.expr(x.Index)
		switch s.kind {
		case kIntArr, kFltArr:
			v.written[x.Target] = true
			v.recordAccess(&frontend.IndexExpr{Array: x.Target, Index: x.Index, Line: x.Line}, true)
		default:
			v.errf(x.Line, RuleStructure, "%q is not an array", x.Target)
		}
		return
	}
	switch s.kind {
	case kAccClaimed, kAcc:
		if !x.Add {
			v.errf(x.Line, RuleRedAssign,
				"accumulator %q may only be updated with += (reductions must stay associative)", x.Target)
		}
	case kLocal:
		delete(v.localForms, x.Target) // value no longer tracks the initializer
	case kLoopVar:
		v.errf(x.Line, RuleLoopVar, "loop variable %q is read-only", x.Target)
	case kScalarConst, kScalarSym:
		v.errf(x.Line, RuleStructure, "scalar %q is immutable; use a local (let)", x.Target)
	default:
		v.errf(x.Line, RuleStructure, "cannot assign to %q", x.Target)
	}
}

// --- expressions --------------------------------------------------------------

// expr resolves names and records array read accesses.
func (v *vetter) expr(e frontend.Expr) {
	switch x := e.(type) {
	case *frontend.Ident:
		s, ok := v.syms[x.Name]
		if !ok {
			v.errf(x.Line, RuleUndefined, "undefined name %q", x.Name)
			return
		}
		switch s.kind {
		case kIntArr, kFltArr:
			v.errf(x.Line, RuleStructure, "%q is an array; index it", x.Name)
		case kAccClaimed:
			v.errf(x.Line, RuleRedRead,
				"accumulator %q read inside its reducing loop observes a task-private partial sum; read it after the loop", x.Name)
		}
	case *frontend.IndexExpr:
		v.indexBase(x)
		v.expr(x.Index)
		v.recordAccess(x, false)
	case *frontend.BinExpr:
		v.expr(x.L)
		v.expr(x.R)
	case *frontend.UnaryExpr:
		v.expr(x.X)
	}
}

func (v *vetter) indexBase(x *frontend.IndexExpr) {
	s, ok := v.syms[x.Array]
	if !ok {
		v.errf(x.Line, RuleUndefined, "undefined array %q", x.Array)
		return
	}
	if s.kind != kIntArr && s.kind != kFltArr {
		v.errf(x.Line, RuleStructure, "%q is not an array", x.Array)
	}
}

// recordAccess snapshots an array access with its affine form and the
// current loop context.
func (v *vetter) recordAccess(x *frontend.IndexExpr, write bool) {
	if s, ok := v.syms[x.Array]; !ok || (s.kind != kIntArr && s.kind != kFltArr) {
		return
	}
	form, ok := v.affineOf(x.Index)
	if !ok {
		form = nil
	}
	path := make([]pathEnt, len(v.stack))
	for i, l := range v.stack {
		path[i] = pathEnt{v: l.v, depth: l.depth, lo: l.lo, hi: l.hi, known: l.known}
	}
	v.accesses = append(v.accesses, &access{
		array: x.Array, write: write, sub: x.Index, line: x.Line, form: form, path: path,
	})
}

// --- dependence pass ----------------------------------------------------------

// dependences runs the pairwise tests for every parallel loop over every
// array that the kernel writes.
func (v *vetter) dependences() {
	// Non-affine subscripts on written arrays: one warning per access,
	// naming the enclosing loop-variable chain so the reader can see which
	// iteration spaces the undecidable subscript ranges over.
	for _, a := range v.accesses {
		if a.form == nil && v.written[a.array] {
			kind := "read"
			if a.write {
				kind = "write"
			}
			v.warnf(a.line, RuleNonAffine,
				"cannot prove parallel iterations independent: %s of %s[%s]%s has a non-affine subscript",
				kind, a.array, frontend.FormatExpr(a.sub), loopChain(a.path))
		}
	}

	for pi := range v.parloops {
		P := &v.parloops[pi]
		if P.known && P.hi-P.lo < 2 {
			continue // 0 or 1 iterations: trivially DOALL
		}
		// Accesses in P's subtree, grouped by array.
		byArr := map[string][]*access{}
		for _, a := range v.accesses {
			if a.form == nil || !v.written[a.array] || !onPath(a, P) {
				continue
			}
			byArr[a.array] = append(byArr[a.array], a)
		}
		for arr, accs := range byArr {
			for i, w := range accs {
				if !w.write {
					continue
				}
				for j, x := range accs {
					if j < i && x.write {
						continue // unordered write pairs: test once
					}
					v.testPair(P, arr, w, x)
				}
			}
		}
	}
}

// loopChain renders an access's enclosing loop variables, outermost first,
// as " (in loop i, in loop j)" — empty for an access outside any loop.
func loopChain(path []pathEnt) string {
	if len(path) == 0 {
		return ""
	}
	names := make([]string, len(path))
	for i, ent := range path {
		names[i] = ent.v
	}
	return fmt.Sprintf(" (in loop %s)", strings.Join(names, ", in loop "))
}

func onPath(a *access, P *loopRec) bool {
	for _, ent := range a.path {
		if ent.depth == P.depth && ent.v == P.v {
			return true
		}
	}
	return false
}

func (v *vetter) testPair(P *loopRec, arr string, w, x *access) {
	verd, dist := pairDep(P, w, x)
	if verd == vIndependent {
		return
	}
	kind, rule := "read", RuleLoopCarried
	if x.write {
		kind, rule = "write", RuleWriteWrite
	}
	where := fmt.Sprintf("%s[%s] (line %d) and %s %s[%s] (line %d)",
		arr, frontend.FormatExpr(w.sub), w.line, kind, arr, frontend.FormatExpr(x.sub), x.line)
	if verd == vConflict {
		if dist > 0 {
			v.errf(w.line, rule,
				"loop %q is not DOALL: iterations at distance %d touch the same element — write %s",
				P.v, dist, where)
		} else {
			v.errf(w.line, rule,
				"loop %q is not DOALL: distinct iterations touch the same element — write %s",
				P.v, where)
		}
		return
	}
	v.warnf(w.line, RuleMayAlias,
		"cannot prove iterations of %q independent: write %s may alias", P.v, where)
}
