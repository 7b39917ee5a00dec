// Code generated by hbcc -emit-go from kernels/powersum.hbk. DO NOT EDIT.

// Package powersumgen is the specialized Go compilation of kernel "powersum":
// monomorphic per-level loop functions over hoisted live-ins, an inlined
// promotion poll at chunk boundaries, and a flat padded context array for
// the serial driver — no interpreter machinery on the hot path.
package powersumgen

import (
	"hbc"

	"hbc/gen"
)

// Kernel header constants (`let` declarations), folded at generation
// time and hoisted to package scope.
const (
	n int64 = 8000
)

// Env is the kernel's data environment: one flat typed struct in place
// of the interpreter's name-keyed maps. Dotted dataset names keep their
// source spelling with '.' written '_'.
type Env struct {
	A_rows   int64
	A_nnz    int64
	A_rowPtr []int64
	A_colInd []int64
	A_val    []float64
	rowsum   []float64
}

// NewEnv materializes the environment: datasets generated with the
// language's fixed seeds, arrays allocated and filled via Reset.
func NewEnv() *Env {
	e := &Env{}
	_m0 := gen.PowerLaw(n, (n / 2))
	e.A_rows = _m0.Rows
	e.A_nnz = _m0.NNZ()
	e.A_rowPtr = _m0.RowPtr
	e.A_colInd = gen.Int64s(_m0.ColInd)
	e.A_val = _m0.Val
	e.rowsum = make([]float64, n)
	e.Reset()
	return e
}

// Reset restores every declared array to its initializer; dataset arrays
// are inputs and stay untouched, mirroring the interpreter's env.Reset.
func (e *Env) Reset() {
	for _i := range e.rowsum {
		e.rowsum[_i] = 0
	}
}

// Scalar returns a bound integer scalar by its kernel-source name.
func (e *Env) Scalar(name string) (int64, bool) {
	switch name {
	case "n":
		return n, true
	case "A.rows":
		return e.A_rows, true
	case "A.nnz":
		return e.A_nnz, true
	}
	return 0, false
}

// IntArray returns a bound int array (shared, not copied).
func (e *Env) IntArray(name string) ([]int64, bool) {
	switch name {
	case "A.rowPtr":
		return e.A_rowPtr, true
	case "A.colInd":
		return e.A_colInd, true
	}
	return nil, false
}

// FloatArray returns a bound float array (shared, not copied).
func (e *Env) FloatArray(name string) ([]float64, bool) {
	switch name {
	case "A.val":
		return e.A_val, true
	case "rowsum":
		return e.rowsum, true
	}
	return nil, false
}

// boundsNest0 evaluates the [lo, hi) range of the level-0 loop over i.
//
//hbc:noalloc
func boundsNest0(e *Env) (int64, int64) {
	return 0, e.A_rows
}

// leftoverTailNest0 is the per-iteration tail after the nested loop —
// the leftover task split from the slice so a promoted continuation can
// run it after joining the child reduction.
//
//hbc:noalloc
func leftoverTailNest0(e *Env, i int64, acc *float64) {
	rowsum := e.rowsum
	rowsum[i] = (*acc)
}

// sliceTaskNest0 is the monomorphic slice-task entry for the level-0 loop
// over i: it runs whole iterations — hooks, the nested loop's bounds,
// and a direct call of sliceTaskNest1, which spends and returns the
// budget _r — and spends _r at its latch: an iteration whose nested loop
// ran nothing costs one unit, and a budget at zero polls with iterations
// left or, at hi, is returned for the runtime to poll. Cancellation is
// checked wherever a chunk is drawn. A nested stop is recorded with
// rt.Stop and the in-flight iteration returned for the runtime to
// finish.
//
//hbc:noalloc
func sliceTaskNest0(e *Env, iv, hi int64, _r int64, rt hbc.SliceRT) (int64, int64) {
	_acc := rt.Acc(1).(*float64)
	for iv < hi {
		i := iv
		_lo, _hi := boundsNest1(e, i)
		*_acc = 0
		if _lo < _hi {
			var _iv int64
			if _iv, _r = sliceTaskNest1(e, i, _lo, _hi, _acc, _r, rt); _iv < _hi {
				rt.Stop(1, _lo, _iv, _hi)
				return iv, _r
			}
		}
		leftoverTailNest0(e, i, _acc)
		iv++
		if _lo >= _hi {
			if _r <= 0 {
				if rt.Aborted() {
					return iv, _r
				}
				_r = rt.Chunk(hi - iv)
			}
			_r--
		}
		if _r == 0 {
			if iv >= hi {
				return iv, _r
			}
			_r = rt.Chunk(hi - iv)
			if rt.Poll() || rt.Aborted() {
				return iv, _r
			}
		}
	}
	return iv, _r
}

// boundsNest1 evaluates the [lo, hi) range of the level-1 loop over j.
//
//hbc:noalloc
func boundsNest1(e *Env, i int64) (int64, int64) {
	return e.A_rowPtr[i], e.A_rowPtr[(i + 1)]
}

// bodyNest1 runs iterations [lo, hi) of the leaf loop over j serially:
// the closure-free leaf body shared by the serial driver and the
// runtime's non-slice paths.
//
//hbc:noalloc
func bodyNest1(e *Env, i int64, lo, hi int64, acc *float64) {
	A_val := e.A_val
	for j := lo; j < hi; j++ {
		*acc += (A_val[j] * A_val[j])
	}
}

// sliceTaskNest1 is the monomorphic slice-task entry for the leaf loop:
// it owns the chunked iteration loop, spends the private iteration
// budget _r (passed in and returned, so it stays in a register down the
// chain), and inlines the promotion poll at chunk boundaries, returning
// the next unstarted iteration so a heartbeat can promote the remaining
// slice. A chunk that ends at hi leaves the budget at zero and returns
// without polling: the enclosing latch takes that poll. Cancellation is
// checked wherever a chunk is drawn; a chunk carried in from the
// enclosing iteration was checked where it was drawn.
// The reduction accumulates in the local _a, stored back to *acc on
// every return.
//
//hbc:noalloc
func sliceTaskNest1(e *Env, i int64, iv, hi int64, acc *float64, _r int64, rt hbc.SliceRT) (int64, int64) {
	A_val := e.A_val
	_a := *acc
	for iv < hi {
		if _r <= 0 {
			if rt.Aborted() {
				*acc = _a
				return iv, _r
			}
			_r = rt.Chunk(hi - iv)
		}
		_n := _r
		if _left := hi - iv; _left < _n {
			_n = _left
		}
		for j := iv; j < iv+_n; j++ {
			_a += (A_val[j] * A_val[j])
		}
		iv += _n
		_r -= _n
		if _r == 0 && iv < hi {
			_r = rt.Chunk(hi - iv)
			if rt.Poll() || rt.Aborted() {
				*acc = _a
				return iv, _r
			}
		}
	}
	*acc = _a
	return iv, _r
}

// ctx is one level of RunSerial's flat loop context — bounds, induction
// variable, accumulator — padded so adjacent levels never share a cache
// line.
//
//hbc:padded
type ctx struct {
	_          [64]byte
	lo, iv, hi int64
	acc        float64
	_          [64]byte
}

// RunSerial executes the kernel sequentially through the specialized
// driver: statically dispatched calls over a flat context array, in
// place of the interpreter's closure tree and per-call frames.
//
//hbc:noalloc
func RunSerial(e *Env) float64 {
	var _cs [2]ctx
	_cs[0].lo, _cs[0].hi = boundsNest0(e)
	for _cs[0].iv = _cs[0].lo; _cs[0].iv < _cs[0].hi; _cs[0].iv++ {
		i := _cs[0].iv
		_cs[1].lo, _cs[1].hi = boundsNest1(e, i)
		_cs[1].acc = 0
		bodyNest1(e, i, _cs[1].lo, _cs[1].hi, &_cs[1].acc)
		leftoverTailNest0(e, i, &_cs[1].acc)
	}
	return 0
}

// Nest builds the specialized loop nest over e. The closures here only
// adapt the generic hook signatures; all kernel work runs in the
// monomorphic functions above.
func Nest(e *Env) *hbc.Nest {
	l1 := &hbc.Loop{
		Name: "j",
		Bounds: func(_ any, idx []int64) (int64, int64) {
			return boundsNest1(e, idx[0])
		},
		Body: func(_ any, idx []int64, lo, hi int64, acc any) {
			bodyNest1(e, idx[0], lo, hi, acc.(*float64))
		},
		Slice: func(_ any, idx []int64, iv, hi int64, acc any, rt hbc.SliceRT) int64 {
			b := rt.Budget()
			iv, *b = sliceTaskNest1(e, idx[0], iv, hi, acc.(*float64), *b, rt)
			return iv
		},
		Reduce: gen.SumFloat64(),
	}
	l0 := &hbc.Loop{
		Name: "i",
		Bounds: func(_ any, _ []int64) (int64, int64) {
			return boundsNest0(e)
		},
		Children: []*hbc.Loop{l1},
		Slice: func(_ any, _ []int64, iv, hi int64, _ any, rt hbc.SliceRT) int64 {
			b := rt.Budget()
			iv, *b = sliceTaskNest0(e, iv, hi, *b, rt)
			return iv
		},
		Post: func(_ any, idx []int64, _ any, children []any) {
			leftoverTailNest0(e, idx[0], children[0].(*float64))
		},
	}
	return &hbc.Nest{Name: "powersum", Root: l0}
}

func init() {
	gen.Register(&gen.Kernel{
		Name:      "powersum",
		Source:    "kernels/powersum.hbk",
		SourceSHA: srcSHA,
		FactsJSON: factsJSON,
		NewEnv:    func() gen.Env { return NewEnv() },
		Nest:      func(e gen.Env) *hbc.Nest { return Nest(e.(*Env)) },
		RunSerial: func(e gen.Env) float64 { return RunSerial(e.(*Env)) },
	})
}

// srcSHA is the SHA-256 of the kernel source this package was generated
// from; consumers verify it before preferring the generated path.
const srcSHA = "7a69e50959afe02319a7d120d9860ec23f0a8652acff1575c83baa51f0621078"

// factsJSON is the kernel's analysis fact record (analysis.Facts),
// captured at generation time.
const factsJSON = `{
  "kernel": "powersum",
  "file": "kernels/powersum.hbk",
  "pure": false,
  "effects": {
    "reads": [
      "A.rowPtr",
      "A.val"
    ],
    "writes": [
      "rowsum"
    ],
    "noIO": true,
    "deterministic": true,
    "reductions": 1
  },
  "loops": [
    {
      "var": "i",
      "line": 8,
      "depth": 0,
      "parallel": true,
      "leaf": false,
      "trip": {
        "expr": "8000",
        "val": 8000,
        "known": true
      },
      "iterCost": {
        "expr": "5 + (A.nnz / A.rows) * 11",
        "known": false
      },
      "totalCost": {
        "expr": "8000 * (5 + (A.nnz / A.rows) * 11)",
        "known": false
      },
      "variance": "data"
    },
    {
      "var": "j",
      "line": 10,
      "depth": 1,
      "parallel": true,
      "leaf": true,
      "trip": {
        "expr": "A.nnz / A.rows",
        "known": false
      },
      "iterCost": {
        "expr": "11",
        "val": 11,
        "known": true
      },
      "totalCost": {
        "expr": "(A.nnz / A.rows) * 11",
        "known": false
      },
      "variance": "data",
      "chunkHint": 372
    }
  ],
  "bounds": [
    {
      "array": "A.rowPtr",
      "subscript": "(i + 1)",
      "line": 10,
      "write": false,
      "verdict": "proved"
    },
    {
      "array": "A.rowPtr",
      "subscript": "i",
      "line": 10,
      "write": false,
      "verdict": "proved"
    },
    {
      "array": "A.val",
      "subscript": "j",
      "line": 11,
      "write": false,
      "verdict": "unknown",
      "reason": "range of loop variable j is not static"
    },
    {
      "array": "rowsum",
      "subscript": "i",
      "line": 13,
      "write": true,
      "verdict": "proved"
    }
  ]
}`
