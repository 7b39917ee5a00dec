package loopnest

import (
	"errors"
	"testing"
)

func leaf(name string) *Loop {
	return &Loop{
		Name:   name,
		Bounds: RangeN(10),
		Body:   func(any, []int64, int64, int64, any) {},
	}
}

func interior(name string, kids ...*Loop) *Loop {
	return &Loop{Name: name, Bounds: RangeN(10), Children: kids}
}

func TestValidateAcceptsWellFormed(t *testing.T) {
	slice := func(any, []int64, int64, int64, any, SliceRT) int64 { return 0 }
	slicedChain := interior("o", interior("m", leaf("i")))
	slicedChain.Slice = slice
	slicedChain.Children[0].Slice = slice
	slicedChain.Children[0].Children[0].Slice = slice
	cases := []*Nest{
		{Name: "sliced chain3", Root: slicedChain},
		{Name: "single", Root: leaf("a")},
		{Name: "chain2", Root: interior("o", leaf("i"))},
		{Name: "chain3", Root: interior("o", interior("m", leaf("i")))},
		{Name: "siblings", Root: interior("o", leaf("a"), leaf("b"))},
		{Name: "mixed", Root: interior("o", interior("m", leaf("x")), leaf("y"))},
	}
	for _, n := range cases {
		if err := n.Validate(); err != nil {
			t.Errorf("%s: Validate = %v, want nil", n.Name, err)
		}
	}
}

func TestValidateRejections(t *testing.T) {
	noBounds := leaf("nb")
	noBounds.Bounds = nil
	bothShapes := leaf("both")
	bothShapes.Children = []*Loop{leaf("k")}
	neither := &Loop{Name: "neither", Bounds: RangeN(1)}
	leafHooks := leaf("lh")
	leafHooks.Pre = func(any, []int64, any) {}
	badReduce := leaf("br")
	badReduce.Reduce = &Reduction{}
	shared := leaf("s")
	slice := func(any, []int64, int64, int64, any, SliceRT) int64 { return 0 }
	sliced := func(l *Loop) *Loop { l.Slice = slice; return l }
	twoChildren := sliced(interior("tc", sliced(leaf("a")), sliced(leaf("b"))))
	plainChild := sliced(interior("pc", leaf("k")))

	cases := []struct {
		name string
		nest *Nest
		want error
	}{
		{"no root", &Nest{}, ErrNoRoot},
		{"no bounds", &Nest{Root: noBounds}, ErrNoBounds},
		{"body and children", &Nest{Root: bothShapes}, ErrLeafShape},
		{"neither body nor children", &Nest{Root: neither}, ErrLeafShape},
		{"leaf hooks", &Nest{Root: leafHooks}, ErrLeafHooks},
		{"bad reduce", &Nest{Root: badReduce}, ErrBadReduce},
		{"shared loop", &Nest{Root: interior("o", shared, shared)}, ErrSharedLoop},
		{"nil child", &Nest{Root: interior("o", nil)}, ErrNilChild},
		{"interior slice over two children", &Nest{Root: twoChildren}, ErrSliceShape},
		{"interior slice over a child without one", &Nest{Root: plainChild}, ErrSliceShape},
	}
	for _, c := range cases {
		err := c.nest.Validate()
		if !errors.Is(err, c.want) {
			t.Errorf("%s: Validate = %v, want %v", c.name, err, c.want)
		}
	}
}

func TestValidateDepthLimit(t *testing.T) {
	l := leaf("deep")
	root := l
	for i := 0; i < MaxDepth; i++ {
		root = interior("wrap", root)
	}
	n := &Nest{Root: root}
	if err := n.Validate(); !errors.Is(err, ErrTooDeep) {
		t.Fatalf("Validate = %v, want ErrTooDeep", err)
	}
}

func TestDepthAndCounts(t *testing.T) {
	n := &Nest{Root: interior("o", interior("m", leaf("x")), leaf("y"))}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	if d := n.Depth(); d != 3 {
		t.Errorf("Depth = %d, want 3", d)
	}
	if c := n.CountLoops(); c != 4 {
		t.Errorf("CountLoops = %d, want 4", c)
	}
	if c := n.CountLeaves(); c != 2 {
		t.Errorf("CountLeaves = %d, want 2", c)
	}
}

func TestFixedRange(t *testing.T) {
	b := FixedRange(3, 9)
	lo, hi := b(nil, nil)
	if lo != 3 || hi != 9 {
		t.Fatalf("FixedRange = [%d,%d), want [3,9)", lo, hi)
	}
}

func TestSumFloat64Reduction(t *testing.T) {
	r := SumFloat64()
	a := r.Fresh()
	b := r.Fresh()
	*a.(*float64) = 2.5
	*b.(*float64) = 4.0
	r.Merge(a, b)
	if got := *a.(*float64); got != 6.5 {
		t.Fatalf("Merge = %v, want 6.5", got)
	}
	r.Reset(a)
	if got := *a.(*float64); got != 0 {
		t.Fatalf("Reset = %v, want 0", got)
	}
}

func TestVecSumReduction(t *testing.T) {
	r := VecSumFloat64(3)
	a := r.Fresh().([]float64)
	b := r.Fresh().([]float64)
	a[0], b[0], b[2] = 1, 2, 5
	r.Merge(any(a), any(b))
	if a[0] != 3 || a[2] != 5 {
		t.Fatalf("vec merge = %v", a)
	}
	r.Reset(any(a))
	if a[0] != 0 || a[2] != 0 {
		t.Fatalf("vec reset = %v", a)
	}
}

func TestMaxInt64Reduction(t *testing.T) {
	r := MaxInt64()
	a := r.Fresh()
	b := r.Fresh()
	*a.(*int64) = 10
	*b.(*int64) = 42
	r.Merge(a, b)
	if got := *a.(*int64); got != 42 {
		t.Fatalf("max merge = %d, want 42", got)
	}
	r.Merge(a, r.Fresh()) // identity must not clobber
	if got := *a.(*int64); got != 42 {
		t.Fatalf("identity merge = %d, want 42", got)
	}
}
