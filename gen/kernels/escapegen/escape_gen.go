// Code generated by hbcc -emit-go from kernels/escape.hbk. DO NOT EDIT.

// Package escapegen is the specialized Go compilation of kernel "escape":
// monomorphic per-level loop functions over hoisted live-ins, an inlined
// promotion poll at chunk boundaries, and a flat padded context array for
// the serial driver — no interpreter machinery on the hot path.
package escapegen

import (
	"hbc"

	"hbc/gen"
)

// Kernel header constants (`let` declarations), folded at generation
// time and hoisted to package scope.
const (
	w       int64 = 300
	h       int64 = 200
	maxIter int64 = 256
)

// Env is the kernel's data environment: one flat typed struct in place
// of the interpreter's name-keyed maps. Dotted dataset names keep their
// source spelling with '.' written '_'.
type Env struct {
	out []int64
}

// NewEnv materializes the environment: datasets generated with the
// language's fixed seeds, arrays allocated and filled via Reset.
func NewEnv() *Env {
	e := &Env{}
	e.out = make([]int64, (w * h))
	e.Reset()
	return e
}

// Reset restores every declared array to its initializer; dataset arrays
// are inputs and stay untouched, mirroring the interpreter's env.Reset.
func (e *Env) Reset() {
	for _i := range e.out {
		e.out[_i] = 0
	}
}

// Scalar returns a bound integer scalar by its kernel-source name.
func (e *Env) Scalar(name string) (int64, bool) {
	switch name {
	case "w":
		return w, true
	case "h":
		return h, true
	case "maxIter":
		return maxIter, true
	}
	return 0, false
}

// IntArray returns a bound int array (shared, not copied).
func (e *Env) IntArray(name string) ([]int64, bool) {
	switch name {
	case "out":
		return e.out, true
	}
	return nil, false
}

// FloatArray returns a bound float array (shared, not copied).
func (e *Env) FloatArray(name string) ([]float64, bool) {
	return nil, false
}

// boundsNest0 evaluates the [lo, hi) range of the level-0 loop over py.
//
//hbc:noalloc
func boundsNest0(e *Env) (int64, int64) {
	return 0, h
}

// sliceTaskNest0 is the monomorphic slice-task entry for the level-0 loop
// over py: it runs whole iterations — hooks, the nested loop's bounds,
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
	for iv < hi {
		py := iv
		_lo, _hi := boundsNest1(e, py)
		if _lo < _hi {
			var _iv int64
			if _iv, _r = sliceTaskNest1(e, py, _lo, _hi, _r, rt); _iv < _hi {
				rt.Stop(1, _lo, _iv, _hi)
				return iv, _r
			}
		}
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

// boundsNest1 evaluates the [lo, hi) range of the level-1 loop over px.
//
//hbc:noalloc
func boundsNest1(e *Env, py int64) (int64, int64) {
	return 0, w
}

// bodyNest1 runs iterations [lo, hi) of the leaf loop over px serially:
// the closure-free leaf body shared by the serial driver and the
// runtime's non-slice paths.
//
//hbc:noalloc
func bodyNest1(e *Env, py int64, lo, hi int64) {
	out := e.out
	for px := lo; px < hi; px++ {
		cr := int64(((px - ((2 * w) / 3)) * 3))
		ci := int64(((py - (h / 2)) * 3))
		zr := 0.0
		zi := 0.0
		it := int64(0)
		for k, _end0 := int64(0), int64(maxIter); k < _end0; k++ {
			if ((zr * zr) + (zi * zi)) > 4.0 {
				break
			}
			t := (((zr * zr) - (zi * zi)) + ((float64(cr) * 1.0) / float64(w)))
			zi = (((2.0 * zr) * zi) + ((float64(ci) * 1.0) / float64(h)))
			zr = t
			it = (it + 1)
		}
		out[((py * w) + px)] = it
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
//
//hbc:noalloc
func sliceTaskNest1(e *Env, py int64, iv, hi int64, _r int64, rt hbc.SliceRT) (int64, int64) {
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
		for px := iv; px < iv+_n; px++ {
			cr := int64(((px - ((2 * w) / 3)) * 3))
			ci := int64(((py - (h / 2)) * 3))
			zr := 0.0
			zi := 0.0
			it := int64(0)
			for k, _end0 := int64(0), int64(maxIter); k < _end0; k++ {
				if ((zr * zr) + (zi * zi)) > 4.0 {
					break
				}
				t := (((zr * zr) - (zi * zi)) + ((float64(cr) * 1.0) / float64(w)))
				zi = (((2.0 * zr) * zi) + ((float64(ci) * 1.0) / float64(h)))
				zr = t
				it = (it + 1)
			}
			out[((py * w) + px)] = it
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
	var _cs [2]ctx
	_cs[0].lo, _cs[0].hi = boundsNest0(e)
	for _cs[0].iv = _cs[0].lo; _cs[0].iv < _cs[0].hi; _cs[0].iv++ {
		py := _cs[0].iv
		_cs[1].lo, _cs[1].hi = boundsNest1(e, py)
		bodyNest1(e, py, _cs[1].lo, _cs[1].hi)
	}
	return 0
}

// Nest builds the specialized loop nest over e. The closures here only
// adapt the generic hook signatures; all kernel work runs in the
// monomorphic functions above.
func Nest(e *Env) *hbc.Nest {
	l1 := &hbc.Loop{
		Name: "px",
		Bounds: func(_ any, idx []int64) (int64, int64) {
			return boundsNest1(e, idx[0])
		},
		Body: func(_ any, idx []int64, lo, hi int64, _ any) {
			bodyNest1(e, idx[0], lo, hi)
		},
		Slice: func(_ any, idx []int64, iv, hi int64, _ any, rt hbc.SliceRT) int64 {
			b := rt.Budget()
			iv, *b = sliceTaskNest1(e, idx[0], iv, hi, *b, rt)
			return iv
		},
	}
	l0 := &hbc.Loop{
		Name: "py",
		Bounds: func(_ any, _ []int64) (int64, int64) {
			return boundsNest0(e)
		},
		Children: []*hbc.Loop{l1},
		Slice: func(_ any, _ []int64, iv, hi int64, _ any, rt hbc.SliceRT) int64 {
			b := rt.Budget()
			iv, *b = sliceTaskNest0(e, iv, hi, *b, rt)
			return iv
		},
	}
	return &hbc.Nest{Name: "escape", Root: l0}
}

func init() {
	gen.Register(&gen.Kernel{
		Name:      "escape",
		Source:    "kernels/escape.hbk",
		SourceSHA: srcSHA,
		FactsJSON: factsJSON,
		NewEnv:    func() gen.Env { return NewEnv() },
		Nest:      func(e gen.Env) *hbc.Nest { return Nest(e.(*Env)) },
		RunSerial: func(e gen.Env) float64 { return RunSerial(e.(*Env)) },
	})
}

// srcSHA is the SHA-256 of the kernel source this package was generated
// from; consumers verify it before preferring the generated path.
const srcSHA = "e251d5fd59a6fe4c568ee2ed6f84453101c034f711d210b9a67205e17cdf77a3"

// factsJSON is the kernel's analysis fact record (analysis.Facts),
// captured at generation time.
const factsJSON = `{
  "kernel": "escape",
  "file": "kernels/escape.hbk",
  "pure": false,
  "effects": {
    "reads": [],
    "writes": [
      "out"
    ],
    "noIO": true,
    "deterministic": true,
    "reductions": 0
  },
  "loops": [
    {
      "var": "py",
      "line": 10,
      "depth": 0,
      "parallel": true,
      "leaf": false,
      "trip": {
        "expr": "200",
        "val": 200,
        "known": true
      },
      "iterCost": {
        "expr": "3313200",
        "val": 3313200,
        "known": true
      },
      "totalCost": {
        "expr": "662640000",
        "val": 662640000,
        "known": true
      },
      "variance": "control"
    },
    {
      "var": "px",
      "line": 11,
      "depth": 1,
      "parallel": true,
      "leaf": true,
      "trip": {
        "expr": "300",
        "val": 300,
        "known": true
      },
      "iterCost": {
        "expr": "11044",
        "val": 11044,
        "known": true
      },
      "totalCost": {
        "expr": "3313200",
        "val": 3313200,
        "known": true
      },
      "variance": "control",
      "chunkHint": 1
    },
    {
      "var": "k",
      "line": 17,
      "depth": 2,
      "parallel": false,
      "leaf": true,
      "trip": {
        "expr": "256",
        "val": 256,
        "known": true
      },
      "iterCost": {
        "expr": "43",
        "val": 43,
        "known": true
      },
      "totalCost": {
        "expr": "11008",
        "val": 11008,
        "known": true
      },
      "variance": "uniform"
    }
  ],
  "bounds": [
    {
      "array": "out",
      "subscript": "((py * w) + px)",
      "line": 26,
      "write": true,
      "verdict": "proved"
    }
  ]
}`
