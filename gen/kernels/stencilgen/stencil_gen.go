// Code generated by hbcc -emit-go from kernels/stencil.hbk. DO NOT EDIT.

// Package stencilgen is the specialized Go compilation of kernel "stencil":
// monomorphic per-level loop functions over hoisted live-ins, an inlined
// promotion poll at chunk boundaries, and a flat padded context array for
// the serial driver — no interpreter machinery on the hot path.
package stencilgen

import (
	"hbc"

	"hbc/gen"
)

// Kernel header constants (`let` declarations), folded at generation
// time and hoisted to package scope.
const (
	n int64 = 100000
)

// Env is the kernel's data environment: one flat typed struct in place
// of the interpreter's name-keyed maps. Dotted dataset names keep their
// source spelling with '.' written '_'.
type Env struct {
	in  []float64
	out []float64
}

// NewEnv materializes the environment: datasets generated with the
// language's fixed seeds, arrays allocated and filled via Reset.
func NewEnv() *Env {
	e := &Env{}
	e.in = make([]float64, n)
	e.out = make([]float64, n)
	e.Reset()
	return e
}

// Reset restores every declared array to its initializer; dataset arrays
// are inputs and stay untouched, mirroring the interpreter's env.Reset.
func (e *Env) Reset() {
	for _i := range e.in {
		e.in[_i] = 1.0
	}
	for _i := range e.out {
		e.out[_i] = 0
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
	case "in":
		return e.in, true
	case "out":
		return e.out, true
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
func bodyNest0(e *Env, lo, hi int64) {
	in := e.in
	out := e.out
	for i := lo; i < hi; i++ {
		if i == 0 {
			out[i] = ((in[i] + in[(i+1)]) / 2.0)
		} else {
			if i == (n - 1) {
				out[i] = ((in[(i-1)] + in[i]) / 2.0)
			} else {
				out[i] = (((in[(i-1)] + in[i]) + in[(i+1)]) / 3.0)
			}
		}
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
//
//hbc:noalloc
func sliceTaskNest0(e *Env, iv, hi int64, _r int64, rt hbc.SliceRT) (int64, int64) {
	in := e.in
	out := e.out
	for iv < hi {
		if _r <= 0 {
			if rt.Aborted() {
				return iv, _r
			}
			_r = rt.Chunk(hi - iv)
		}
		_n := _r
		if _left := hi - iv; _left < _n {
			_n = _left
		}
		for i := iv; i < iv+_n; i++ {
			if i == 0 {
				out[i] = ((in[i] + in[(i+1)]) / 2.0)
			} else {
				if i == (n - 1) {
					out[i] = ((in[(i-1)] + in[i]) / 2.0)
				} else {
					out[i] = (((in[(i-1)] + in[i]) + in[(i+1)]) / 3.0)
				}
			}
		}
		iv += _n
		_r -= _n
		if _r == 0 && iv < hi {
			_r = rt.Chunk(hi - iv)
			if rt.Poll() || rt.Aborted() {
				return iv, _r
			}
		}
	}
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
	bodyNest0(e, _cs[0].lo, _cs[0].hi)
	return 0
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
		Body: func(_ any, _ []int64, lo, hi int64, _ any) {
			bodyNest0(e, lo, hi)
		},
		Slice: func(_ any, _ []int64, iv, hi int64, _ any, rt hbc.SliceRT) int64 {
			b := rt.Budget()
			iv, *b = sliceTaskNest0(e, iv, hi, *b, rt)
			return iv
		},
	}
	return &hbc.Nest{Name: "stencil", Root: l0}
}

func init() {
	gen.Register(&gen.Kernel{
		Name:      "stencil",
		Source:    "kernels/stencil.hbk",
		SourceSHA: srcSHA,
		FactsJSON: factsJSON,
		NewEnv:    func() gen.Env { return NewEnv() },
		Nest:      func(e gen.Env) *hbc.Nest { return Nest(e.(*Env)) },
		RunSerial: func(e gen.Env) float64 { return RunSerial(e.(*Env)) },
	})
}

// srcSHA is the SHA-256 of the kernel source this package was generated
// from; consumers verify it before preferring the generated path.
const srcSHA = "41724993ea045cd9993d19b02c16484a1d8560e84306a196214a4d1e3d66ec92"

// factsJSON is the kernel's analysis fact record (analysis.Facts),
// captured at generation time.
const factsJSON = `{
  "kernel": "stencil",
  "file": "kernels/stencil.hbk",
  "pure": false,
  "effects": {
    "reads": [
      "in"
    ],
    "writes": [
      "out"
    ],
    "noIO": true,
    "deterministic": true,
    "reductions": 0
  },
  "loops": [
    {
      "var": "i",
      "line": 10,
      "depth": 0,
      "parallel": true,
      "leaf": true,
      "trip": {
        "expr": "100000",
        "val": 100000,
        "known": true
      },
      "iterCost": {
        "expr": "31",
        "val": 31,
        "known": true
      },
      "totalCost": {
        "expr": "3100000",
        "val": 3100000,
        "known": true
      },
      "variance": "uniform",
      "chunkHint": 132
    }
  ],
  "bounds": [
    {
      "array": "in",
      "subscript": "(i + 1)",
      "line": 12,
      "write": false,
      "verdict": "unknown",
      "reason": "subscript range [1, 100000] may reach 100000 or beyond"
    },
    {
      "array": "in",
      "subscript": "i",
      "line": 12,
      "write": false,
      "verdict": "proved"
    },
    {
      "array": "out",
      "subscript": "i",
      "line": 12,
      "write": true,
      "verdict": "proved"
    },
    {
      "array": "in",
      "subscript": "(i - 1)",
      "line": 16,
      "write": false,
      "verdict": "unknown",
      "reason": "subscript range [-1, 99998] may go below 0"
    },
    {
      "array": "in",
      "subscript": "i",
      "line": 16,
      "write": false,
      "verdict": "proved"
    },
    {
      "array": "out",
      "subscript": "i",
      "line": 16,
      "write": true,
      "verdict": "proved"
    },
    {
      "array": "in",
      "subscript": "(i + 1)",
      "line": 19,
      "write": false,
      "verdict": "unknown",
      "reason": "subscript range [1, 100000] may reach 100000 or beyond"
    },
    {
      "array": "in",
      "subscript": "(i - 1)",
      "line": 19,
      "write": false,
      "verdict": "unknown",
      "reason": "subscript range [-1, 99998] may go below 0"
    },
    {
      "array": "in",
      "subscript": "i",
      "line": 19,
      "write": false,
      "verdict": "proved"
    },
    {
      "array": "out",
      "subscript": "i",
      "line": 19,
      "write": true,
      "verdict": "proved"
    }
  ]
}`
