// The paper's running example end-to-end: sparse-matrix by dense-vector
// product on the arrowhead matrix (Fig. 1), expressed as a two-level DOALL
// nest and executed under heartbeat scheduling.
//
// The arrowhead matrix is the granularity-control challenge input: row 0
// holds half the nonzeros, so parallelizing only the row loop leaves one
// task with half the work, while parallelizing every column loop drowns
// the short rows in task overhead. Heartbeat scheduling promotes whichever
// loop has parallelism left when a beat lands — watch the promotion
// statistics split between the two levels.
//
// Run with:
//
//	go run ./examples/spmv
package main

import (
	"fmt"
	"time"

	"hbc"
)

// csr is a minimal compressed sparse-row matrix.
type csr struct {
	n      int64
	rowPtr []int64
	colInd []int32
	val    []float64
}

// arrowhead builds the n×n matrix with dense first row, first column, and
// diagonal.
func arrowhead(n int64) *csr {
	m := &csr{n: n, rowPtr: make([]int64, n+1)}
	for c := int64(0); c < n; c++ {
		m.colInd = append(m.colInd, int32(c))
		m.val = append(m.val, 1)
	}
	m.rowPtr[1] = int64(len(m.val))
	for i := int64(1); i < n; i++ {
		m.colInd = append(m.colInd, 0, int32(i))
		m.val = append(m.val, 1, 1)
		m.rowPtr[i+1] = int64(len(m.val))
	}
	return m
}

// env is the loop nest's shared environment: the matrix and the vectors.
type env struct {
	m       *csr
	in, out []float64
}

func main() {
	const n = 200_000
	e := &env{m: arrowhead(n), in: make([]float64, n), out: make([]float64, n)}
	for i := range e.in {
		e.in[i] = 1
	}

	// The Fig. 1 nest: a row loop whose tail work writes out[i], and a
	// column loop with a scalar sum reduction — both DOALL.
	col := &hbc.Loop{
		Name: "col",
		Bounds: func(envAny any, idx []int64) (int64, int64) {
			m := envAny.(*env).m
			return m.rowPtr[idx[0]], m.rowPtr[idx[0]+1]
		},
		Reduce: hbc.SumFloat64(),
		Body: func(envAny any, idx []int64, lo, hi int64, acc any) {
			e := envAny.(*env)
			s := acc.(*float64)
			for j := lo; j < hi; j++ {
				*s += e.m.val[j] * e.in[e.m.colInd[j]]
			}
		},
	}
	row := &hbc.Loop{
		Name:     "row",
		Bounds:   func(envAny any, _ []int64) (int64, int64) { return 0, envAny.(*env).m.n },
		Children: []*hbc.Loop{col},
		Post: func(envAny any, idx []int64, _ any, children []any) {
			envAny.(*env).out[idx[0]] = *children[0].(*float64)
		},
	}
	prog := hbc.MustCompile(&hbc.Nest{Name: "spmv", Root: row}, hbc.Config{})
	fmt.Printf("compiled: %d leftover tasks in the table\n", prog.Leftovers())

	// Serial elision first, as the baseline.
	t0 := time.Now()
	prog.RunSeq(e)
	serial := time.Since(t0)
	fmt.Printf("serial: %v (out[0]=%g, out[1]=%g)\n", serial.Round(time.Microsecond), e.out[0], e.out[1])

	// Heartbeat-scheduled run, traced: every beat, promotion and chunk
	// retune lands on its worker's event lane.
	team := hbc.NewTeam(hbc.WithTelemetry(0))
	defer team.Close()
	r := team.Load(prog, e)
	defer r.Close()
	t0 = time.Now()
	r.Run()
	hb := time.Since(t0)

	st := r.Stats()
	fmt.Printf("heartbeat: %v on %d workers\n", hb.Round(time.Microsecond), team.Size())
	fmt.Printf("promotions: %d total, by nesting level %v\n", st.Promotions(), st.ByLevel())
	fmt.Printf("heartbeats: %v\n", r.PulseStats())
	fmt.Print(team.Telemetry().Tracer.Snapshot().Timeline(2 * time.Millisecond))
}
