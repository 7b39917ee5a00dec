package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"hbc"
	"hbc/gen"
	_ "hbc/gen/kernels" // fills the gen registry with the checked-in kernels
	"hbc/internal/analysis"
	"hbc/internal/frontend"
)

// kernelSrc is one kernels/<name>.hbk file and the generated artifact that
// claims it.
type kernelSrc struct {
	name    string
	path    string
	src     []byte
	outputs []string // declared arrays, the kernel's outputs
	gk      *gen.Kernel
}

// loadKernel reads kernels/<name>.hbk and requires a generated artifact
// built from exactly those bytes. serve.KernelAuto falls back to the
// interpreter silently on a stale artifact, which would make a *-gen
// workload measure the wrong backend; the generated RunSerial is also every
// workload's reference, so a stale one would make the reference lie.
func loadKernel(root, name string) (*kernelSrc, error) {
	path := filepath.Join(root, "kernels", name+".hbk")
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	gk, ok := gen.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("kernel %s: no generated package registered", name)
	}
	sum := sha256.Sum256(src)
	if sha := hex.EncodeToString(sum[:]); sha != gk.SourceSHA {
		return nil, fmt.Errorf("kernel %s: generated artifact is stale (source %s, artifact built from %s): re-run hbcc -emit-go",
			name, sha, gk.SourceSHA)
	}
	k, err := frontend.ParseFile(path, string(src))
	if err != nil {
		return nil, err
	}
	ks := &kernelSrc{name: name, path: path, src: src, gk: gk}
	for _, d := range k.Decls {
		if a, ok := d.(*frontend.ArrayDecl); ok {
			ks.outputs = append(ks.outputs, a.Name)
		}
	}
	return ks, nil
}

func loadKernels(root string, names []string) ([]*kernelSrc, error) {
	var out []*kernelSrc
	for _, n := range names {
		k, err := loadKernel(root, n)
		if err != nil {
			return nil, err
		}
		out = append(out, k)
	}
	return out, nil
}

// kernelEnv is the accessor surface the interpreter's and the generated
// packages' environments share.
type kernelEnv interface {
	Reset()
	FloatArray(name string) ([]float64, bool)
	IntArray(name string) ([]int64, bool)
}

// checksum is a position-sensitive digest of one output array: the plain
// sum and an index-weighted sum, so swapped elements do not cancel.
type checksum struct {
	sum, weighted float64
	isInt         bool
}

func checksumOf(env kernelEnv, name string) (checksum, bool) {
	if a, ok := env.FloatArray(name); ok {
		var c checksum
		for i, v := range a {
			c.sum += v
			c.weighted += float64(i%97+1) * v
		}
		return c, true
	}
	if a, ok := env.IntArray(name); ok {
		c := checksum{isInt: true}
		for i, v := range a {
			c.sum += float64(v)
			c.weighted += float64(i%97+1) * float64(v)
		}
		return c, true
	}
	return checksum{}, false
}

// reference is what the generated serial elision computes for a kernel, and
// how long it takes: the denominator of serial_ratio_x.
type reference struct {
	serialP50 time.Duration
	value     float64 // root reduction (0 when the kernel has none)
	sums      map[string]checksum
}

// measureSerial runs the generated RunSerial driver for about budget and
// keeps its median time and its outputs.
func measureSerial(k *kernelSrc, budget time.Duration) reference {
	env := k.gk.NewEnv()
	ref := reference{sums: map[string]checksum{}}
	var times []float64
	deadline := time.Now().Add(budget)
	for n := 0; n < 5 || time.Now().Before(deadline); n++ {
		env.Reset()
		t0 := time.Now()
		ref.value = k.gk.RunSerial(env)
		times = append(times, float64(time.Since(t0)))
	}
	ref.serialP50 = time.Duration(median(times))
	for _, name := range k.outputs {
		if c, ok := checksumOf(env, name); ok {
			ref.sums[name] = c
		}
	}
	return ref
}

// resultValue extracts the root reduction from what RunCtx returned.
func resultValue(v any) float64 {
	if p, ok := v.(*float64); ok && p != nil {
		return *p
	}
	return 0
}

// checkValue compares a root reduction with the reference (1e-9 relative:
// the merge order of a parallel float reduction varies).
func (r reference) checkValue(got float64) error {
	if !relClose(got, r.value, 1e-9) {
		return fmt.Errorf("root reduction %g, serial elision %g", got, r.value)
	}
	return nil
}

// checkOutputs compares every declared output array with the reference:
// exact for ints, 1e-9 relative for floats.
func (r reference) checkOutputs(env kernelEnv) error {
	for name, want := range r.sums {
		got, ok := checksumOf(env, name)
		if !ok {
			return fmt.Errorf("output array %s missing", name)
		}
		rel := 1e-9
		if want.isInt {
			rel = 0
		}
		if !relClose(got.sum, want.sum, rel) || !relClose(got.weighted, want.weighted, rel) {
			return fmt.Errorf("output array %s: checksum (%g, %g), serial elision (%g, %g)",
				name, got.sum, got.weighted, want.sum, want.weighted)
		}
	}
	return nil
}

// setupTimes splits library set-up by the layer that spent it.
type setupTimes struct {
	parseCompile, facts, compileLoad time.Duration
}

// instance is one kernel loaded on a team, as a serve shard holds it.
type instance struct {
	env    kernelEnv
	runner *hbc.Runner
}

// invoke is what one serve request pays: reset the environment, run.
func (in *instance) invoke(ctx context.Context) (any, error) {
	in.env.Reset()
	return in.runner.RunCtx(ctx)
}

// loadInstance builds a kernel on a team exactly as serve.KernelAuto (gen)
// and serve.KernelFile (interp) do — re-reading and re-parsing the file
// included — with tune adjusting the default hbc.Config{Facts: ...} for the
// Fig. 7 ladder. Layer times are added to st.
func loadInstance(team *hbc.Team, k *kernelSrc, be backend, tune func(*hbc.Config), st *setupTimes) (*instance, error) {
	t0 := time.Now()
	src, err := os.ReadFile(k.path)
	if err != nil {
		return nil, err
	}
	parsed, err := frontend.ParseFile(k.path, string(src))
	if err != nil {
		return nil, err
	}
	var (
		env   kernelEnv
		nest  *hbc.Nest
		facts *analysis.Facts
	)
	t1 := time.Now()
	if be == backendGen {
		// The generated path parses the fact record embedded at emit time.
		if facts, err = k.gk.Facts(); err != nil {
			return nil, err
		}
	} else {
		facts = analysis.BuildFacts(k.path, parsed)
	}
	t2 := time.Now()
	if be == backendGen {
		genv := k.gk.NewEnv()
		env, nest = genv, k.gk.Nest(genv)
	} else {
		c, err := frontend.Compile(parsed)
		if err != nil {
			return nil, err
		}
		env, nest = c.Env, c.Nest
	}
	t3 := time.Now()
	st.facts += t2.Sub(t1)
	st.parseCompile += t1.Sub(t0) + t3.Sub(t2)
	cfg := hbc.Config{Facts: facts}
	if tune != nil {
		tune(&cfg)
	}
	prog, err := hbc.Compile(nest, cfg)
	if err != nil {
		return nil, err
	}
	in := &instance{env: env, runner: team.Load(prog, env)}
	st.compileLoad += time.Since(t3)
	return in, nil
}

// mixer draws kernels in seeded random permutations of the workload's set,
// so every block of len(set) invocations holds each kernel once: two
// kernels alternate, five are uniformly mixed.
type mixer struct {
	rng  *rand.Rand
	perm []int
	i    int
}

func newMixer(seed int64, n int) *mixer {
	m := &mixer{rng: rand.New(rand.NewSource(seed)), perm: make([]int, n), i: n}
	for i := range m.perm {
		m.perm[i] = i
	}
	return m
}

func (m *mixer) next() int {
	if m.i == len(m.perm) {
		m.rng.Shuffle(len(m.perm), func(a, b int) { m.perm[a], m.perm[b] = m.perm[b], m.perm[a] })
		m.i = 0
	}
	k := m.perm[m.i]
	m.i++
	return k
}
