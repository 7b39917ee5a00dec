// Code generated by hbcc -emit-go from kernels/dotnorm.hbk. DO NOT EDIT.

// Package dotnormgen is the specialized Go compilation of kernel "dotnorm":
// monomorphic per-level loop functions over hoisted live-ins, an inlined
// promotion poll at chunk boundaries, and a flat padded context array for
// the serial driver — no interpreter machinery on the hot path.
package dotnormgen

import (
	"hbc"

	"hbc/gen"
)

// Kernel header constants (`let` declarations), folded at generation
// time and hoisted to package scope.
const (
	n int64 = 65536
)

// Env is the kernel's data environment: one flat typed struct in place
// of the interpreter's name-keyed maps. Dotted dataset names keep their
// source spelling with '.' written '_'.
type Env struct {
	v []float64
}

// NewEnv materializes the environment: datasets generated with the
// language's fixed seeds, arrays allocated and filled via Reset.
func NewEnv() *Env {
	e := &Env{}
	e.v = make([]float64, n)
	e.Reset()
	return e
}

// Reset restores every declared array to its initializer; dataset arrays
// are inputs and stay untouched, mirroring the interpreter's env.Reset.
func (e *Env) Reset() {
	for _i := range e.v {
		e.v[_i] = 1.0
	}
}

// Scalar returns a bound integer scalar by its kernel-source name.
func (e *Env) Scalar(name string) (int64, bool) {
	switch name {
	case "n":
		return n, true
	}
	return 0, false
}

// IntArray returns a bound int array (shared, not copied).
func (e *Env) IntArray(name string) ([]int64, bool) {
	return nil, false
}

// FloatArray returns a bound float array (shared, not copied).
func (e *Env) FloatArray(name string) ([]float64, bool) {
	switch name {
	case "v":
		return e.v, true
	}
	return nil, false
}

// boundsNest0 evaluates the [lo, hi) range of the level-0 loop over i.
//
//hbc:noalloc
func boundsNest0(e *Env) (int64, int64) {
	return 0, n
}

// bodyNest0 runs iterations [lo, hi) of the leaf loop over i serially:
// the closure-free leaf body shared by the serial driver and the
// runtime's non-slice paths.
//
//hbc:noalloc
func bodyNest0(e *Env, lo, hi int64, acc *float64) {
	v := e.v
	for i := lo; i < hi; i++ {
		*acc += (v[i] * v[i])
	}
}

// sliceTaskNest0 is the monomorphic slice-task entry for the leaf loop:
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
func sliceTaskNest0(e *Env, iv, hi int64, acc *float64, _r int64, rt hbc.SliceRT) (int64, int64) {
	v := e.v
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
		for i := iv; i < iv+_n; i++ {
			_a += (v[i] * v[i])
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
	var _cs [1]ctx
	_cs[0].lo, _cs[0].hi = boundsNest0(e)
	_cs[0].acc = 0
	bodyNest0(e, _cs[0].lo, _cs[0].hi, &_cs[0].acc)
	return _cs[0].acc
}

// Nest builds the specialized loop nest over e. The closures here only
// adapt the generic hook signatures; all kernel work runs in the
// monomorphic functions above.
func Nest(e *Env) *hbc.Nest {
	l0 := &hbc.Loop{
		Name: "i",
		Bounds: func(_ any, _ []int64) (int64, int64) {
			return boundsNest0(e)
		},
		Body: func(_ any, _ []int64, lo, hi int64, acc any) {
			bodyNest0(e, lo, hi, acc.(*float64))
		},
		Slice: func(_ any, _ []int64, iv, hi int64, acc any, rt hbc.SliceRT) int64 {
			b := rt.Budget()
			iv, *b = sliceTaskNest0(e, iv, hi, acc.(*float64), *b, rt)
			return iv
		},
		Reduce: gen.SumFloat64(),
	}
	return &hbc.Nest{Name: "dotnorm", Root: l0}
}

func init() {
	gen.Register(&gen.Kernel{
		Name:      "dotnorm",
		Source:    "kernels/dotnorm.hbk",
		SourceSHA: srcSHA,
		FactsJSON: factsJSON,
		NewEnv:    func() gen.Env { return NewEnv() },
		Nest:      func(e gen.Env) *hbc.Nest { return Nest(e.(*Env)) },
		RunSerial: func(e gen.Env) float64 { return RunSerial(e.(*Env)) },
	})
}

// srcSHA is the SHA-256 of the kernel source this package was generated
// from; consumers verify it before preferring the generated path.
const srcSHA = "a505a518608dadffc58e273e51cbb220e050fc8821fde3eaef71a7c74790cfa7"

// factsJSON is the kernel's analysis fact record (analysis.Facts),
// captured at generation time.
const factsJSON = `{
  "kernel": "dotnorm",
  "file": "kernels/dotnorm.hbk",
  "pure": true,
  "effects": {
    "reads": [
      "v"
    ],
    "writes": [],
    "noIO": true,
    "deterministic": true,
    "reductions": 1
  },
  "loops": [
    {
      "var": "i",
      "line": 9,
      "depth": 0,
      "parallel": true,
      "leaf": true,
      "trip": {
        "expr": "65536",
        "val": 65536,
        "known": true
      },
      "iterCost": {
        "expr": "11",
        "val": 11,
        "known": true
      },
      "totalCost": {
        "expr": "720896",
        "val": 720896,
        "known": true
      },
      "variance": "uniform",
      "chunkHint": 372
    }
  ],
  "bounds": [
    {
      "array": "v",
      "subscript": "i",
      "line": 10,
      "write": false,
      "verdict": "proved"
    }
  ]
}`
