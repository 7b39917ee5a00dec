package main

// `hbcc data` generates and inspects the synthetic inputs that replace
// the paper's downloaded datasets: the spmv matrices (arrowhead, power-law,
// random), the cage15 stand-in, the NELL-2-like sparse tensor, and the
// RMAT graph standing in for Twitter/LiveJournal. It prints the structural
// statistics that matter for irregularity: size, nonzeros/edges, and the
// skew of per-row (per-vertex, per-slice) work.
//
// Usage:
//
//	hbcc data -kind arrowhead -n 100000
//	hbcc data -kind powerlaw  -n 40000 -out powerlaw.hbc   # generate & save
//	hbcc data -in powerlaw.hbc                             # inspect a saved file
//	hbcc data -kind cage      -n 30000
//	hbcc data -kind tensor    -n 6000
//	hbcc data -kind graph     -n 13        # n is the RMAT scale here

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"hbc/internal/dataio"
	"hbc/internal/graph"
	"hbc/internal/matrix"
	"hbc/internal/tensor"
)

func dataCmd(fs *flag.FlagSet) func([]string) {
	var (
		kind = fs.String("kind", "arrowhead", "arrowhead|powerlaw|powerlaw-reverse|random|cage|tensor|graph")
		n    = fs.Int64("n", 100_000, "size parameter (rows; RMAT scale for graphs)")
		seed = fs.Int64("seed", 42, "generator seed")
		out  = fs.String("out", "", "save the generated dataset to this file")
		in   = fs.String("in", "", "inspect a previously saved dataset instead of generating")
	)
	return func([]string) {
		if *in != "" {
			inspect(*in)
			return
		}

		var saveErr error
		switch *kind {
		case "arrowhead":
			m := matrix.Arrowhead(*n)
			describeMatrix("arrowhead", m)
			saveErr = maybeSaveMatrix(*out, m)
		case "powerlaw":
			m := matrix.PowerLaw(*n, *n/2, 0.8, *seed)
			describeMatrix("powerlaw", m)
			saveErr = maybeSaveMatrix(*out, m)
		case "powerlaw-reverse":
			m := matrix.PowerLawReverse(*n, *n/2, 0.8, *seed)
			describeMatrix("powerlaw-reverse", m)
			saveErr = maybeSaveMatrix(*out, m)
		case "random":
			m := matrix.Random(*n, 12, *seed)
			describeMatrix("random", m)
			saveErr = maybeSaveMatrix(*out, m)
		case "cage":
			m := matrix.CageLike(*n, 3, 8, *seed)
			describeMatrix("cage-like", m)
			saveErr = maybeSaveMatrix(*out, m)
		case "tensor":
			t := tensor.PowerLawTensor(*n, 800, 600, 300, 60, 0.9, *seed)
			describeTensor(t)
			if *out != "" {
				saveErr = dataio.SaveTensor(*out, t)
			}
		case "graph":
			g := graph.RMAT(int(*n), 12, *seed)
			describeGraph(g)
			if *out != "" {
				saveErr = dataio.SaveGraph(*out, g)
			}
		default:
			fmt.Fprintf(os.Stderr, "hbcc data: unknown kind %q\n", *kind)
			os.Exit(2)
		}
		if saveErr != nil {
			fatal(saveErr)
		}
		if *out != "" {
			fmt.Printf("saved to %s\n", *out)
		}
	}
}

func maybeSaveMatrix(path string, m *matrix.CSR) error {
	if path == "" {
		return nil
	}
	return dataio.SaveMatrix(path, m)
}

// inspect identifies and describes a saved dataset.
func inspect(path string) {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	kind, err := dataio.Peek(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	switch kind {
	case dataio.KindMatrix:
		m, err := dataio.LoadMatrix(path)
		if err != nil {
			fatal(err)
		}
		describeMatrix(path, m)
	case dataio.KindTensor:
		t, err := dataio.LoadTensor(path)
		if err != nil {
			fatal(err)
		}
		describeTensor(t)
	case dataio.KindGraph:
		g, err := dataio.LoadGraph(path)
		if err != nil {
			fatal(err)
		}
		describeGraph(g)
	}
}

func describeMatrix(name string, m *matrix.CSR) {
	if err := m.Validate(); err != nil {
		fatal(err)
	}
	lens := make([]int64, m.Rows)
	for i := int64(0); i < m.Rows; i++ {
		lens[i] = m.RowNNZ(i)
	}
	fmt.Printf("%s: %d x %d, %d nonzeros\n", name, m.Rows, m.Cols, m.NNZ())
	printSkew("row nnz", lens)
}

func describeTensor(t *tensor.CSF3) {
	if err := t.Validate(); err != nil {
		fatal(err)
	}
	fibers := make([]int64, t.I)
	for i := int64(0); i < t.I; i++ {
		fibers[i] = t.JPtr[i+1] - t.JPtr[i]
	}
	fmt.Printf("tensor: %d x %d x %d, %d fibers, %d nonzeros\n",
		t.I, t.J, t.K, t.Fibers(), t.NNZ())
	printSkew("fibers/slice", fibers)
}

func describeGraph(g *graph.Graph) {
	if err := g.Validate(); err != nil {
		fatal(err)
	}
	degs := make([]int64, g.N)
	for v := int64(0); v < g.N; v++ {
		degs[v] = g.InDeg(v)
	}
	fmt.Printf("graph: %d vertices, %d edges\n", g.N, g.M())
	printSkew("in-degree", degs)
}

// printSkew summarizes a work distribution: min / median / p99 / max and the
// max:median ratio, the irregularity signal the heartbeat runtime adapts to.
func printSkew(label string, xs []int64) {
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	med := s[len(s)/2]
	p99 := s[len(s)*99/100]
	ratio := "inf"
	if med > 0 {
		ratio = fmt.Sprintf("%.1fx", float64(s[len(s)-1])/float64(med))
	}
	fmt.Printf("%s: min=%d median=%d p99=%d max=%d (max/median %s)\n",
		label, s[0], med, p99, s[len(s)-1], ratio)
}
