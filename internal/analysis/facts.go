package analysis

// The fact engine: a multi-pass framework over a parsed kernel that emits a
// serializable Facts record — everything the rest of the system wants to
// know statically about a kernel beyond the yes/no DOALL verdict Vet gives.
//
// Pass ordering (each pass reads the walk state the vetter collected and
// the facts the passes before it produced):
//
//  1. walk      — the shared vetter walk, run with dataset resolution on:
//                 per-access affine forms, loop records with bounds, the
//                 read/write sets (analysis.go).
//  2. effects   — purity inference: which arrays the kernel reads and
//                 writes, reduction count, IO/determinism flags (this file).
//  3. cost      — symbolic trip counts and weighted per-iteration op
//                 counts, variance classes, leaf chunk hints (cost.go).
//  4. bounds    — subscript range vs declared extent proofs (bounds.go).
//
// Consumers: hbc.Compile caches Facts on the compiled Program and seeds
// Adaptive Chunking's initial chunk from the leaf cost estimate; hbcc vet
// -facts dumps the record as JSON; hbcc tune -explain prints the static
// estimates next to measured tuning results. DESIGN.md §12 documents the
// schema.

import (
	"encoding/json"
	"sort"

	"hbc/internal/frontend"
)

// Facts is the fact engine's serializable output for one kernel.
type Facts struct {
	// Kernel and File identify the analyzed source.
	Kernel string `json:"kernel"`
	File   string `json:"file,omitempty"`
	// Pure reports that running the kernel has no observable effect beyond
	// its root reduction value: it writes no array, performs no IO, and is
	// deterministic given its (statically bound) inputs. Pure kernels are
	// safe to result-memoize.
	Pure bool `json:"pure"`
	// Effects is the purity evidence: the read/write sets behind Pure.
	Effects Effects `json:"effects"`
	// Loops holds per-loop cost facts in nesting order, outermost first.
	Loops []LoopFacts `json:"loops"`
	// Bounds holds one verdict per array subscript in the kernel.
	Bounds []BoundsFact `json:"bounds"`
}

// Effects is the kernel's inferred effect summary.
type Effects struct {
	// Reads and Writes list the arrays the kernel reads and writes
	// (sorted). A non-empty Writes is what makes a kernel impure: the
	// mutation is visible to whoever owns the environment.
	Reads  []string `json:"reads"`
	Writes []string `json:"writes"`
	// NoIO is always true today — the kernel language has no IO construct —
	// but is kept explicit so the schema survives language growth.
	NoIO bool `json:"noIO"`
	// Deterministic: the kernel's result depends only on its declared
	// inputs. True for the whole language (generators are seeded, there is
	// no rand/time/IO), modulo float reassociation at reduction joins —
	// partial sums merge in promotion order, so float results are
	// value-stable but not bit-stable across runs.
	Deterministic bool `json:"deterministic"`
	// Reductions counts declared accumulators (sum decls plus an implicit
	// root-reduce accumulator).
	Reductions int `json:"reductions"`
}

// Sym is a (possibly symbolic) integer quantity: Expr always renders it
// human-readably; Val is meaningful only when Known.
type Sym struct {
	Expr  string `json:"expr"`
	Val   int64  `json:"val,omitempty"`
	Known bool   `json:"known"`
}

// Variance classes for a loop's per-iteration work, in increasing order of
// irregularity.
const (
	// VarianceUniform: every iteration runs the same instruction count.
	VarianceUniform = "uniform"
	// VarianceData: iteration cost depends on loaded data — e.g. an inner
	// loop whose trip count comes from rowPtr (spmv, powersum rows).
	VarianceData = "data"
	// VarianceControl: iteration cost depends on data-driven control flow —
	// a serial loop with break or a data-dependent bound (escape's
	// per-pixel iteration count).
	VarianceControl = "control"
)

// LoopFacts is the cost record of one loop in the nest.
type LoopFacts struct {
	Var      string `json:"var"`
	Line     int    `json:"line"`
	Depth    int    `json:"depth"`
	Parallel bool   `json:"parallel"`
	Leaf     bool   `json:"leaf"` // no nested parallel loop
	// Trip is the loop's symbolic trip count (hi - lo).
	Trip Sym `json:"trip"`
	// IterCost is the weighted op count of one iteration, including any
	// loops nested inside it.
	IterCost Sym `json:"iterCost"`
	// TotalCost is Trip × IterCost.
	TotalCost Sym `json:"totalCost"`
	// Variance classifies how iteration cost varies (see Variance*).
	Variance string `json:"variance"`
	// ChunkHint, for parallel leaf loops with a known IterCost, is the
	// suggested initial Adaptive Chunking chunk size (see ChunkHint).
	ChunkHint int64 `json:"chunkHint,omitempty"`
}

// Bounds verdicts.
const (
	// BoundsProved: every reachable value of the subscript lies inside the
	// array's declared extent; the access needs no runtime bounds check.
	BoundsProved = "proved"
	// BoundsOut: every reachable value lies outside the extent — the access
	// is certainly a bug if it executes.
	BoundsOut = "out-of-bounds"
	// BoundsUnknown: the analysis cannot decide (non-affine subscript,
	// symbolic extent, or a range only partly inside — branch conditions
	// are not tracked, so a guarded boundary access stays unknown).
	BoundsUnknown = "unknown"
)

// BoundsFact is the bounds-safety verdict for one array subscript.
type BoundsFact struct {
	Array     string `json:"array"`
	Subscript string `json:"subscript"`
	Line      int    `json:"line"`
	Write     bool   `json:"write"`
	Verdict   string `json:"verdict"`
	// Reason explains non-proved verdicts, naming the offending side of
	// the range comparison.
	Reason string `json:"reason,omitempty"`
}

// BuildFacts runs the fact engine over a parsed kernel. It never fails: a
// kernel the vetter rejects still gets a Facts record (with conservative
// unknowns), so callers can always attach facts and gate on them. file
// labels positions as in Vet.
func BuildFacts(file string, k *frontend.Kernel) *Facts {
	v := runVet(file, k, true)
	f := &Facts{Kernel: k.Name, File: v.file}
	f.effects(v, k)
	f.costs(v, k)
	f.boundsPass(v, k)
	f.Pure = len(f.Effects.Writes) == 0 && f.Effects.NoIO && f.Effects.Deterministic
	return f
}

// effects computes the read/write sets and effect flags from the walk.
func (f *Facts) effects(v *vetter, k *frontend.Kernel) {
	reads, writes := map[string]bool{}, map[string]bool{}
	for _, a := range v.accesses {
		if a.write {
			writes[a.array] = true
		} else {
			reads[a.array] = true
		}
	}
	f.Effects = Effects{
		Reads:         sortedKeys(reads),
		Writes:        sortedKeys(writes),
		NoIO:          true,
		Deterministic: true,
		Reductions:    countReductions(k),
	}
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func countReductions(k *frontend.Kernel) int {
	n := 0
	if k.Root != nil && k.Root.Reduce != "" {
		n++
	}
	var stmts func([]frontend.Stmt)
	stmts = func(list []frontend.Stmt) {
		for _, s := range list {
			switch x := s.(type) {
			case *frontend.SumDecl:
				n++
			case *frontend.LoopStmt:
				stmts(x.Body)
			case *frontend.IfStmt:
				stmts(x.Then)
				stmts(x.Else)
			}
		}
	}
	if k.Root != nil {
		stmts(k.Root.Body)
	}
	return n
}

// LeafChunkHint returns the chunk hint of the innermost parallel leaf loop,
// or 0 when the engine could not estimate one — the value hbc.Compile seeds
// Adaptive Chunking with.
func (f *Facts) LeafChunkHint() int64 {
	for i := len(f.Loops) - 1; i >= 0; i-- {
		if f.Loops[i].Parallel && f.Loops[i].Leaf {
			return f.Loops[i].ChunkHint
		}
	}
	return 0
}

// ProvenInBounds reports whether the subscript of array at the given source
// line was proved in-bounds — the interpreter's license to skip the runtime
// check for that access.
func (f *Facts) ProvenInBounds(line int, array string) bool {
	for _, b := range f.Bounds {
		if b.Line == line && b.Array == array && b.Verdict != BoundsProved {
			return false
		}
	}
	for _, b := range f.Bounds {
		if b.Line == line && b.Array == array {
			return true
		}
	}
	return false
}

// JSON renders the facts as stable, indented JSON (slices are sorted at
// construction; there are no maps), suitable for golden tests and CI diffs.
func (f *Facts) JSON() ([]byte, error) {
	return json.MarshalIndent(f, "", "  ")
}
