// Package codegen is the specialized Go backend: it walks a compiled
// kernel's AST and facts and emits a standalone Go package that executes
// the kernel with zero interpretive machinery. Where the interpreter
// (internal/frontend) builds a closure tree that heap-allocates a frame per
// body call and indirects every expression through func values, the
// emitted package is what a careful human would write by hand —
// monomorphic bounds/body/slice-task/leftover functions per nest level,
// direct slice indexing over hoisted live-ins, a flat cache-line padded
// per-level context array for the serial driver, and the heartbeat
// promotion poll inlined at chunk boundaries of the loop body.
//
// The backend is exposed as `hbcc -emit-go`; emitted packages register
// themselves with hbc/gen so hbc.Team and internal/serve run them
// interchangeably with interpreted kernels. Acceptance and rejection are
// kept bit-for-bit aligned with the interpreted path: Emit runs the same
// analysis.Vet and frontend.Compile stages first and refuses any kernel
// they refuse, with the same diagnostics.
//
// One documented semantic divergence: integer division or modulo by zero
// panics with Go's runtime message in generated code, not the
// interpreter's "kernel: division by zero" wrapper. Both still panic at
// the same operation.
package codegen

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"go/format"
	"strconv"
	"strings"

	"hbc/internal/analysis"
	"hbc/internal/frontend"
)

// Artifact is one kernel's emitted package.
type Artifact struct {
	// Name is the kernel name from the source header.
	Name string
	// PackageName is the emitted package name, "<name>gen".
	PackageName string
	// FileName is the suggested file name, "<name>_gen.go".
	FileName string
	// Code is the gofmt-formatted Go source.
	Code []byte
	// Kernel is the parsed source the code was generated from.
	Kernel *frontend.Kernel
	// Facts is the analysis fact record embedded in the package.
	Facts *analysis.Facts
	// SHA is the hex SHA-256 of the kernel source bytes, embedded so
	// consumers can detect a stale artifact.
	SHA string
}

// VetError reports that static analysis rejected the kernel. It carries
// the diagnostics so drivers print exactly what `hbcc -check` prints —
// the codegen path must refuse precisely the kernels the interpreted path
// refuses.
type VetError struct {
	Diags []analysis.Diag
}

func (e *VetError) Error() string {
	var b strings.Builder
	for _, d := range e.Diags {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	b.WriteString("codegen: kernel rejected by static analysis")
	return b.String()
}

// Emit compiles kernel source to a specialized Go package. path labels
// diagnostics and is embedded as the artifact's Source; src is the kernel
// text. The result is deterministic: same source bytes, same output bytes.
func Emit(path string, src []byte) (*Artifact, error) {
	k, err := frontend.ParseFile(path, string(src))
	if err != nil {
		return nil, err
	}
	diags := analysis.Vet(path, k)
	if analysis.HasErrors(diags) {
		return nil, &VetError{Diags: diags}
	}
	// Run the interpreter's compiler for its semantic checks (types, scopes,
	// reduction contracts) so both backends accept and reject identically.
	if _, err := frontend.Compile(k); err != nil {
		return nil, err
	}
	facts := analysis.BuildFacts(path, k)

	em := &emitter{
		k:     k,
		path:  path,
		facts: facts,
		taken: reservedNames(),
		syms:  map[string]sym{},
	}
	sum := sha256.Sum256(src)
	em.sha = hex.EncodeToString(sum[:])
	if err := em.declare(); err != nil {
		return nil, err
	}
	if err := em.walkLevels(); err != nil {
		return nil, err
	}
	raw, err := em.emit()
	if err != nil {
		return nil, err
	}
	code, err := format.Source(raw)
	if err != nil {
		return nil, fmt.Errorf("codegen: emitted package does not parse (emitter bug): %w\n%s", err, raw)
	}
	return &Artifact{
		Name:        k.Name,
		PackageName: k.Name + "gen",
		FileName:    k.Name + "_gen.go",
		Code:        code,
		Kernel:      k,
		Facts:       facts,
		SHA:         em.sha,
	}, nil
}

// --- symbol model -------------------------------------------------------------

type symKind int

const (
	symConst     symKind = iota // `let` header constant → Go package const
	symEnvScalar                // matrix field scalar (A.rows) → Env int64 field
	symIntArr                   // int array → Env []int64 field
	symFltArr                   // float array → Env []float64 field
	symLoopVar                  // loop variable (parallel or serial) → int64 local/param
	symIntLocal                 // `let` statement local, int
	symFltLocal                 // `let` statement local, float
	symAcc                      // visible accumulator → *acc parameter, or a leaf slice's local _a
)

// envResident reports whether the symbol lives in the Env struct.
func (k symKind) envResident() bool {
	return k == symEnvScalar || k == symIntArr || k == symFltArr
}

type sym struct {
	kind   symKind
	goName string
	val    int64 // folded value for symConst
}

// field is one Env struct field, in declaration order.
type field struct {
	src    string // source name, dotted for dataset fields ("A.rowPtr")
	goName string
	kind   symKind
}

type constDef struct {
	src    string
	goName string
	val    int64
}

type matrixDef struct {
	src  string   // matrix name ("A")
	gen  string   // generator ("arrowhead")
	args []string // rendered const-expression arguments
}

type arrayDef struct {
	src     string
	goName  string
	float   bool
	lenExpr string // rendered const expression
	init    string // rendered fill value; "" when zero-filled
}

// level is one parallel loop of the nest chain, outermost first.
type level struct {
	stmt    *frontend.LoopStmt
	goVar   string
	pre     []frontend.Stmt // interior: statements before the child loop
	post    []frontend.Stmt // interior: statements after the child loop
	sumName string          // sum declared in this body for the child, "" if none
}

type emitter struct {
	k     *frontend.Kernel
	path  string
	facts *analysis.Facts
	sha   string

	taken    map[string]bool // claimed Go identifiers (reserved + globals + loop vars)
	syms     map[string]sym  // global scope: consts, env fields
	fields   []field
	consts   []constDef
	matrices []matrixDef
	arrays   []arrayDef
	levels   []level

	buf bytes.Buffer
}

// reservedNames seeds the identifier claim set with Go keywords,
// predeclared identifiers the emitted code relies on, and every name the
// emitter itself uses for machinery.
func reservedNames() map[string]bool {
	t := map[string]bool{}
	for _, n := range []string{
		// Go keywords.
		"break", "case", "chan", "const", "continue", "default", "defer",
		"else", "fallthrough", "for", "func", "go", "goto", "if", "import",
		"interface", "map", "package", "range", "return", "select", "struct",
		"switch", "type", "var",
		// Predeclared identifiers the emitted code uses.
		"any", "append", "bool", "byte", "cap", "copy", "false", "float64",
		"int", "int32", "int64", "len", "make", "new", "nil", "panic",
		"string", "true",
		// Emitter machinery: imports, params, locals, declared names.
		"gen", "hbc", "e", "lo", "hi", "iv", "acc", "rt", "idx", "children",
		"name", "Env", "NewEnv", "Reset", "Scalar", "IntArray", "FloatArray",
		"Nest", "RunSerial", "init", "ctx", "srcSHA", "factsJSON",
	} {
		t[n] = true
	}
	for d := 0; d < 8; d++ {
		t[fmt.Sprintf("boundsNest%d", d)] = true
		t[fmt.Sprintf("preNest%d", d)] = true
		t[fmt.Sprintf("leftoverTailNest%d", d)] = true
		t[fmt.Sprintf("bodyNest%d", d)] = true
		t[fmt.Sprintf("sliceTaskNest%d", d)] = true
		t[fmt.Sprintf("l%d", d)] = true
	}
	return t
}

// mangle claims a Go identifier for a source name: dots become
// underscores, and collisions with reserved or already-claimed names grow
// a trailing underscore. Deterministic given declaration order.
func (em *emitter) mangle(src string) string {
	g := strings.ReplaceAll(src, ".", "_")
	if strings.HasPrefix(g, "_") {
		g = "v" + g // never collide with the emitter's _-prefixed temps
	}
	for em.taken[g] {
		g += "_"
	}
	em.taken[g] = true
	return g
}

// transient returns a Go identifier for a block-scoped local without
// claiming it globally: sibling scopes may reuse the name. It still avoids
// every globally claimed name (the kernel language forbids shadowing, so
// distinct source names are the only collision source).
func (em *emitter) transient(src string) string {
	g := strings.ReplaceAll(src, ".", "_")
	if strings.HasPrefix(g, "_") {
		g = "v" + g
	}
	for em.taken[g] {
		g += "_"
	}
	return g
}

// --- declarations -------------------------------------------------------------

// evalConst folds a header constant expression exactly as the frontend
// compiler does.
func (em *emitter) evalConst(e frontend.Expr) (int64, error) {
	switch x := e.(type) {
	case *frontend.IntLit:
		return x.Value, nil
	case *frontend.Ident:
		s, ok := em.syms[x.Name]
		if !ok || s.kind != symConst {
			return 0, fmt.Errorf("codegen: %q is not a declared constant", x.Name)
		}
		return s.val, nil
	case *frontend.UnaryExpr:
		if x.Op == "-" {
			v, err := em.evalConst(x.X)
			return -v, err
		}
	case *frontend.BinExpr:
		l, err := em.evalConst(x.L)
		if err != nil {
			return 0, err
		}
		r, err := em.evalConst(x.R)
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
				return 0, fmt.Errorf("codegen: division by zero in constant")
			}
			return l / r, nil
		case "%":
			if r == 0 {
				return 0, fmt.Errorf("codegen: modulo by zero in constant")
			}
			return l % r, nil
		}
	}
	return 0, fmt.Errorf("codegen: unsupported constant expression")
}

// renderConst renders a header constant expression as Go source over the
// emitted package consts, preserving the source's shape (`w*h` stays
// `w*h`). Values are identical to evalConst's folding.
func (em *emitter) renderConst(e frontend.Expr) (string, error) {
	switch x := e.(type) {
	case *frontend.IntLit:
		return strconv.FormatInt(x.Value, 10), nil
	case *frontend.Ident:
		s, ok := em.syms[x.Name]
		if !ok || s.kind != symConst {
			return "", fmt.Errorf("codegen: %q is not a declared constant", x.Name)
		}
		return s.goName, nil
	case *frontend.UnaryExpr:
		if x.Op == "-" {
			c, err := em.renderConst(x.X)
			return "(-" + c + ")", err
		}
	case *frontend.BinExpr:
		l, err := em.renderConst(x.L)
		if err != nil {
			return "", err
		}
		r, err := em.renderConst(x.R)
		if err != nil {
			return "", err
		}
		switch x.Op {
		case "+", "-", "*", "/", "%":
			return "(" + l + " " + x.Op + " " + r + ")", nil
		}
	}
	return "", fmt.Errorf("codegen: unsupported constant expression")
}

// declare processes the kernel header: consts, matrix fields, arrays.
func (em *emitter) declare() error {
	addField := func(src string, kind symKind) {
		g := em.mangle(src)
		em.fields = append(em.fields, field{src: src, goName: g, kind: kind})
		em.syms[src] = sym{kind: kind, goName: g}
	}
	for _, d := range em.k.Decls {
		switch x := d.(type) {
		case *frontend.LetDecl:
			v, err := em.evalConst(x.Init)
			if err != nil {
				return err
			}
			g := em.mangle(x.Name)
			em.syms[x.Name] = sym{kind: symConst, goName: g, val: v}
			em.consts = append(em.consts, constDef{src: x.Name, goName: g, val: v})
		case *frontend.MatrixDecl:
			args := make([]string, len(x.Args))
			for i, a := range x.Args {
				c, err := em.renderConst(a)
				if err != nil {
					return err
				}
				args[i] = c
			}
			em.matrices = append(em.matrices, matrixDef{src: x.Name, gen: x.Gen, args: args})
			addField(x.Name+".rows", symEnvScalar)
			addField(x.Name+".nnz", symEnvScalar)
			addField(x.Name+".rowPtr", symIntArr)
			addField(x.Name+".colInd", symIntArr)
			addField(x.Name+".val", symFltArr)
		case *frontend.ArrayDecl:
			lenExpr, err := em.renderConst(x.Len)
			if err != nil {
				return err
			}
			init := ""
			switch v := x.Init.(type) {
			case nil:
			case *frontend.FloatLit:
				if x.Float {
					init = fmtFloat(v.Value)
				} else {
					init = strconv.FormatInt(int64(v.Value), 10)
				}
			case *frontend.IntLit:
				if x.Float {
					init = fmtFloat(float64(v.Value))
				} else {
					init = strconv.FormatInt(v.Value, 10)
				}
			default:
				return fmt.Errorf("codegen: array initializer must be a literal")
			}
			if x.Float {
				addField(x.Name, symFltArr)
			} else {
				addField(x.Name, symIntArr)
			}
			em.arrays = append(em.arrays, arrayDef{
				src:     x.Name,
				goName:  em.fields[len(em.fields)-1].goName,
				float:   x.Float,
				lenExpr: lenExpr,
				init:    init,
			})
		default:
			return fmt.Errorf("codegen: unknown declaration")
		}
	}
	return nil
}

// walkLevels flattens the parallel chain, splitting each interior body
// into pre / child / post around its single nested parallel loop, exactly
// as the interpreter's lowering does.
func (em *emitter) walkLevels() error {
	cur := em.k.Root
	for {
		lv := level{stmt: cur, goVar: em.mangle(cur.Var)}
		var child *frontend.LoopStmt
		for _, s := range cur.Body {
			switch x := s.(type) {
			case *frontend.LoopStmt:
				if x.Parallel {
					if child != nil {
						return fmt.Errorf("codegen: level %d has two nested parallel loops", len(em.levels))
					}
					child = x
					continue
				}
			case *frontend.SumDecl:
				if lv.sumName != "" {
					return fmt.Errorf("codegen: level %d declares two sums", len(em.levels))
				}
				lv.sumName = x.Name
				continue
			}
			if child == nil {
				lv.pre = append(lv.pre, s)
			} else {
				lv.post = append(lv.post, s)
			}
		}
		em.levels = append(em.levels, lv)
		if child == nil {
			break
		}
		if cur.Reduce != "" {
			return fmt.Errorf("codegen: interior loop carries reduce(%s)", cur.Reduce)
		}
		cur = child
	}
	leaf := &em.levels[len(em.levels)-1]
	if len(em.levels) > 1 {
		parent := &em.levels[len(em.levels)-2]
		if leaf.stmt.Reduce != parent.sumName {
			return fmt.Errorf("codegen: leaf reduce(%s) does not match declared sum %q",
				leaf.stmt.Reduce, parent.sumName)
		}
	}
	return nil
}

// leafIdx returns the index of the leaf level.
func (em *emitter) leafIdx() int { return len(em.levels) - 1 }

// leafReduce returns the leaf's accumulator name, "" when it does not
// reduce.
func (em *emitter) leafReduce() string { return em.levels[em.leafIdx()].stmt.Reduce }

// fmtFloat renders a float64 so Go reads back the identical value, always
// with a decimal point or exponent so the literal stays float-typed.
func fmtFloat(v float64) string {
	s := strconv.FormatFloat(v, 'g', -1, 64)
	if !strings.ContainsAny(s, ".eE") {
		s += ".0"
	}
	return s
}
