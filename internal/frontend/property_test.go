package frontend

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"hbc/internal/core"
	"hbc/internal/pulse"
	"hbc/internal/sched"
)

// exprGen builds a random integer expression over loop variable i together
// with a Go oracle computing the same value. Division and modulo use
// strictly positive right-hand sides so the kernel cannot trap.
type exprGen struct {
	rng   *rand.Rand
	depth int
}

func (g *exprGen) gen() (string, func(i int64) int64) {
	if g.depth <= 0 || g.rng.Intn(3) == 0 {
		switch g.rng.Intn(3) {
		case 0:
			v := int64(g.rng.Intn(9) + 1)
			return fmt.Sprint(v), func(int64) int64 { return v }
		case 1:
			return "i", func(i int64) int64 { return i }
		default:
			v := int64(g.rng.Intn(5))
			return fmt.Sprint(v), func(int64) int64 { return v }
		}
	}
	g.depth--
	defer func() { g.depth++ }()
	ls, lf := g.gen()
	switch g.rng.Intn(5) {
	case 0:
		rs, rf := g.gen()
		return "(" + ls + " + " + rs + ")", func(i int64) int64 { return lf(i) + rf(i) }
	case 1:
		rs, rf := g.gen()
		return "(" + ls + " - " + rs + ")", func(i int64) int64 { return lf(i) - rf(i) }
	case 2:
		rs, rf := g.gen()
		return "(" + ls + " * " + rs + ")", func(i int64) int64 { return lf(i) * rf(i) }
	case 3:
		d := int64(g.rng.Intn(7) + 1)
		return "(" + ls + " / " + fmt.Sprint(d) + ")", func(i int64) int64 { return lf(i) / d }
	default:
		d := int64(g.rng.Intn(7) + 1)
		return "(" + ls + " % " + fmt.Sprint(d) + ")", func(i int64) int64 {
			return lf(i) % d
		}
	}
}

// TestQuickExpressionsMatchGo generates random kernels computing a random
// integer expression per index and checks every element against the Go
// oracle, under both serial elision and promoted heartbeat execution.
func TestQuickExpressionsMatchGo(t *testing.T) {
	f := func(seed int64, workers uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := &exprGen{rng: rng, depth: 4}
		exprSrc, oracle := g.gen()
		src := fmt.Sprintf(`
kernel prop
let n = 64
array out int[n]
parallel for i = 0 .. n {
    out[i] = %s
}
`, exprSrc)
		k, err := Parse(src)
		if err != nil {
			t.Logf("parse %q: %v", exprSrc, err)
			return false
		}
		c, err := Compile(k)
		if err != nil {
			t.Logf("compile %q: %v", exprSrc, err)
			return false
		}
		p, err := core.Compile(c.Nest, core.Options{StaticChunk: 1})
		if err != nil {
			return false
		}
		check := func() bool {
			out, _ := c.Env.IntArray("out")
			for i := int64(0); i < 64; i++ {
				if out[i] != oracle(i) {
					t.Logf("expr %q: out[%d] = %d, want %d", exprSrc, i, out[i], oracle(i))
					return false
				}
			}
			return true
		}
		p.RunSeq(c.Env)
		if !check() {
			return false
		}
		c.Env.Reset()
		team := sched.NewTeam(int(workers)%3 + 1)
		defer team.Close()
		x := core.NewExec(p, team, pulse.NewEveryN(2), core.DefaultHeartbeat, c.Env)
		x.Start()
		defer x.Stop()
		x.Run()
		return check()
	}
	cfg := &quick.Config{MaxCount: 40}
	if testing.Short() {
		cfg.MaxCount = 10
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
