// Package gen is the runtime support library for kernels compiled to Go by
// the codegen backend (`hbcc -emit-go`, internal/codegen). A generated
// kernel package imports only the public packages `hbc` and `hbc/gen`: this
// package supplies the pieces the emitted code needs at run time — the
// seeded dataset generators the kernel language's `matrix` declarations
// bind, small helpers mirroring the interpreter's value semantics, and the
// registry through which hbc.Team / internal/serve pick up generated
// kernels interchangeably with interpreted ones.
//
// The registry contract: each generated package registers a *Kernel from
// its init function, keyed by kernel name. Consumers look the kernel up,
// verify SourceSHA against the .hbk source they hold (a stale artifact must
// never silently shadow the interpreter), then build the environment with
// NewEnv and the specialized nest with Nest. See DESIGN.md §14.
package gen

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"hbc"
	"hbc/internal/analysis"
	"hbc/internal/loopnest"
	"hbc/internal/matrix"
)

// Env is the data environment of a generated kernel: a flat struct of
// typed fields emitted per kernel, exposed through the same accessor
// surface as the interpreter's frontend.Env so drivers (checksums, serving,
// differential tests) treat both uniformly. Array names follow the kernel
// source, including dotted dataset fields ("A.rowPtr").
type Env interface {
	// Reset restores every declared array to its initializer.
	Reset()
	// Scalar returns a bound integer scalar (including dataset fields like
	// "A.rows").
	Scalar(name string) (int64, bool)
	// IntArray returns a bound int array (shared, not copied).
	IntArray(name string) ([]int64, bool)
	// FloatArray returns a bound float array (shared, not copied).
	FloatArray(name string) ([]float64, bool)
}

// Kernel is one generated kernel's registry entry.
type Kernel struct {
	// Name is the kernel name from the .hbk source.
	Name string
	// Source is the path of the .hbk file the package was generated from.
	Source string
	// SourceSHA is the hex SHA-256 of the source bytes at generation time.
	// Consumers holding the source must verify it before preferring the
	// generated path.
	SourceSHA string
	// FactsJSON is the analysis fact record (analysis.Facts) captured at
	// generation time, serialized; Facts parses it on demand.
	FactsJSON string
	// NewEnv materializes a fresh data environment (datasets generated,
	// arrays filled).
	NewEnv func() Env
	// Nest builds the specialized loop nest over e. The nest's hooks are
	// monomorphic functions compiled into the generated package; e must be
	// a value produced by this kernel's NewEnv.
	Nest func(e Env) *hbc.Nest
	// RunSerial executes the kernel sequentially through the generated
	// specialized driver (flat context array, no closure calls) and
	// returns the root reduction value (0 if the kernel has none). The
	// codegen overhead benchmarks use it as their serial baseline.
	RunSerial func(e Env) float64
}

// Facts parses the embedded fact record.
func (k *Kernel) Facts() (*analysis.Facts, error) {
	if k.FactsJSON == "" {
		return nil, fmt.Errorf("gen: kernel %q has no embedded facts", k.Name)
	}
	var f analysis.Facts
	if err := json.Unmarshal([]byte(k.FactsJSON), &f); err != nil {
		return nil, fmt.Errorf("gen: kernel %q: parsing embedded facts: %w", k.Name, err)
	}
	return &f, nil
}

var (
	regMu    sync.RWMutex
	registry = map[string]*Kernel{}
)

// Register adds a generated kernel to the registry. Generated packages call
// it from init; a duplicate name panics (two packages claiming one kernel
// is a build-layout bug, not a runtime condition).
func Register(k *Kernel) {
	if k == nil || k.Name == "" || k.NewEnv == nil || k.Nest == nil {
		panic("gen: Register needs a Kernel with Name, NewEnv, and Nest")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[k.Name]; dup {
		panic(fmt.Sprintf("gen: kernel %q registered twice", k.Name))
	}
	registry[k.Name] = k
}

// Lookup returns the registered kernel by name.
func Lookup(name string) (*Kernel, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	k, ok := registry[name]
	return k, ok
}

// Kernels returns the registered kernel names, sorted.
func Kernels() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// SumFloat64 re-exports the float reduction generated kernels declare.
func SumFloat64() *hbc.Reduction { return loopnest.SumFloat64() }

// B2i is the kernel language's bool-as-int64 coercion: comparisons and
// logical operators are int64-valued (1/0) when used as values.
func B2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// CSR is the compressed-sparse-row matrix the dataset generators produce.
type CSR = matrix.CSR

// Arrowhead binds `matrix A = arrowhead(n)`.
func Arrowhead(n int64) *CSR { return matrix.Arrowhead(n) }

// PowerLaw binds `matrix A = powerlaw(n, maxLen)` (the language's fixed
// alpha and seed).
func PowerLaw(n, maxLen int64) *CSR { return matrix.PowerLaw(n, maxLen, 0.8, 42) }

// Random binds `matrix A = random(n, nnzPerRow)` (the language's fixed seed).
func Random(n, nnzPerRow int64) *CSR { return matrix.Random(n, nnzPerRow, 42) }

// Cage binds `matrix A = cage(n)` (the language's fixed band/extras/seed).
func Cage(n int64) *CSR { return matrix.CageLike(n, 3, 8, 42) }

// Int64s widens a generator's []int32 column indices to the kernel
// language's int64 element type.
func Int64s(a []int32) []int64 {
	out := make([]int64, len(a))
	for i, v := range a {
		out[i] = int64(v)
	}
	return out
}
