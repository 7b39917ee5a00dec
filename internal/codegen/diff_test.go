package codegen

import (
	"context"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hbc/gen"
	_ "hbc/gen/kernels"
	"hbc/internal/analysis"
	"hbc/internal/core"
	"hbc/internal/frontend"
	"hbc/internal/loopnest"
	"hbc/internal/pulse"
	"hbc/internal/sched"
)

// goodKernels are the runnable suite kernels with checked-in generated
// packages.
var goodKernels = []string{"spmv", "dotnorm", "stencil", "escape", "powersum"}

// envLike is the accessor surface both the interpreter's frontend.Env and
// a generated package's Env satisfy.
type envLike interface {
	Reset()
	Scalar(name string) (int64, bool)
	IntArray(name string) ([]int64, bool)
	FloatArray(name string) ([]float64, bool)
}

// loadKernel parses and interpreter-compiles a suite kernel.
func loadKernel(t *testing.T, name string) (*frontend.Kernel, *frontend.Compiled) {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "kernels", name+".hbk"))
	if err != nil {
		t.Fatal(err)
	}
	k, err := frontend.ParseFile("kernels/"+name+".hbk", string(src))
	if err != nil {
		t.Fatal(err)
	}
	c, err := frontend.Compile(k)
	if err != nil {
		t.Fatal(err)
	}
	return k, c
}

// arrayNames collects the kernel's array bindings: declared arrays plus
// dataset fields.
func arrayNames(k *frontend.Kernel) (ints, floats []string) {
	for _, d := range k.Decls {
		switch x := d.(type) {
		case *frontend.ArrayDecl:
			if x.Float {
				floats = append(floats, x.Name)
			} else {
				ints = append(ints, x.Name)
			}
		case *frontend.MatrixDecl:
			ints = append(ints, x.Name+".rowPtr", x.Name+".colInd")
			floats = append(floats, x.Name+".val")
		}
	}
	return ints, floats
}

// seedFloats overwrites every float array in both environments with the
// same seeded pseudo-random values, replacing the uniform initializers so
// the differential run exercises real data. Int arrays (the CSR index
// structure) are never touched.
func seedFloats(t *testing.T, k *frontend.Kernel, seed int64, envs ...envLike) {
	t.Helper()
	_, floats := arrayNames(k)
	for _, name := range floats {
		rng := rand.New(rand.NewSource(seed + int64(len(name))))
		var ref []float64
		for i, e := range envs {
			a, ok := e.FloatArray(name)
			if !ok {
				t.Fatalf("env %d has no float array %q", i, name)
			}
			if ref == nil {
				ref = a
				for j := range a {
					a[j] = rng.Float64()*2 - 1
				}
				continue
			}
			if len(a) != len(ref) {
				t.Fatalf("%q: length %d vs %d across envs", name, len(a), len(ref))
			}
			copy(a, ref)
		}
	}
}

// compareEnvs requires bit-identical int arrays and float arrays within
// relTol (0 means bitwise).
func compareEnvs(t *testing.T, k *frontend.Kernel, a, b envLike, relTol float64, label string) {
	t.Helper()
	ints, floats := arrayNames(k)
	for _, name := range ints {
		x, ok1 := a.IntArray(name)
		y, ok2 := b.IntArray(name)
		if !ok1 || !ok2 {
			t.Fatalf("%s: int array %q missing (%v, %v)", label, name, ok1, ok2)
		}
		for i := range x {
			if x[i] != y[i] {
				t.Fatalf("%s: %s[%d] = %d interpreted, %d generated", label, name, i, x[i], y[i])
			}
		}
	}
	for _, name := range floats {
		x, ok1 := a.FloatArray(name)
		y, ok2 := b.FloatArray(name)
		if !ok1 || !ok2 {
			t.Fatalf("%s: float array %q missing (%v, %v)", label, name, ok1, ok2)
		}
		for i := range x {
			if !floatsClose(x[i], y[i], relTol) {
				t.Fatalf("%s: %s[%d] = %v interpreted, %v generated", label, name, i, x[i], y[i])
			}
		}
	}
}

func floatsClose(x, y, relTol float64) bool {
	if relTol == 0 {
		return math.Float64bits(x) == math.Float64bits(y)
	}
	if x == y {
		return true
	}
	diff := math.Abs(x - y)
	scale := math.Max(math.Abs(x), math.Abs(y))
	return diff <= relTol*scale
}

func rootValue(v any) (float64, bool) {
	if p, ok := v.(*float64); ok && p != nil {
		return *p, true
	}
	return 0, false
}

// TestDifferentialSerial runs every suite kernel through the interpreted
// serial driver and the generated RunSerial on identically seeded
// environments and requires bit-identical results, including the root
// reduction value.
func TestDifferentialSerial(t *testing.T) {
	for _, name := range goodKernels {
		t.Run(name, func(t *testing.T) {
			k, c := loadKernel(t, name)
			gk, ok := gen.Lookup(name)
			if !ok {
				t.Fatalf("kernel %q not registered", name)
			}
			envG := gk.NewEnv()
			seedFloats(t, k, 17, c.Env, envG)

			progI, err := core.Compile(c.Nest, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			got := progI.RunSeq(c.Env)
			gotG := gk.RunSerial(envG)

			if v, ok := rootValue(got); ok {
				if math.Float64bits(v) != math.Float64bits(gotG) {
					t.Fatalf("root reduction: %v interpreted, %v generated", v, gotG)
				}
			}
			compareEnvs(t, k, c.Env, envG, 0, "serial")
		})
	}
}

// TestDifferentialHeartbeat runs both paths through the heartbeat engine
// under a deterministic configuration (1 worker, never-firing source) —
// the generated path through its slice-task entries at every level — under
// Adaptive Chunking, a poll at every iteration ("none", StaticChunk 1) and
// a fixed chunk of 32, and requires bit-identical results and the same
// number of polls: the emitted slices and the generic drivers spend and
// poll the budget by one rule, and ask for the same chunks.
func TestDifferentialHeartbeat(t *testing.T) {
	chunks := []struct {
		name string
		size int64
	}{{"adaptive", 0}, {"none", 1}, {"static", 32}}
	for _, name := range goodKernels {
		t.Run(name, func(t *testing.T) {
			for _, c := range chunks {
				t.Run(c.name, func(t *testing.T) {
					differentialHeartbeat(t, name, core.Options{StaticChunk: c.size})
				})
			}
		})
	}
}

func differentialHeartbeat(t *testing.T, name string, opts core.Options) {
	k, c := loadKernel(t, name)
	gk, ok := gen.Lookup(name)
	if !ok {
		t.Fatalf("kernel %q not registered", name)
	}
	envG := gk.NewEnv()
	seedFloats(t, k, 23, c.Env, envG)

	run := func(nestEnv any, prog *core.Program) (any, int64) {
		team := sched.NewTeam(1)
		defer team.Close()
		src := pulse.NewNever()
		x := core.NewExec(prog, team, src, time.Millisecond, nestEnv)
		x.Start()
		defer x.Stop()
		return x.Run(), src.Stats().Polls
	}
	progI, err := core.Compile(c.Nest, opts)
	if err != nil {
		t.Fatal(err)
	}
	progG, err := core.Compile(gk.Nest(envG), opts)
	if err != nil {
		t.Fatal(err)
	}
	got, polls := run(c.Env, progI)
	gotG, pollsG := run(envG, progG)
	if polls != pollsG {
		t.Fatalf("polls: %d interpreted, %d generated", polls, pollsG)
	}

	if v, ok := rootValue(got); ok {
		vg, okg := rootValue(gotG)
		if !okg || math.Float64bits(v) != math.Float64bits(vg) {
			t.Fatalf("root reduction: %v interpreted, %v generated (ok=%v)", v, gotG, okg)
		}
	}
	compareEnvs(t, k, c.Env, envG, 0, "heartbeat")
}

// TestDifferentialParallel runs both paths on a multi-worker team with a
// fast timer heartbeat, where promotions reassociate float reductions:
// int arrays must stay exact, float arrays within 1e-9 relative.
func TestDifferentialParallel(t *testing.T) {
	for _, name := range goodKernels {
		t.Run(name, func(t *testing.T) {
			k, c := loadKernel(t, name)
			gk, ok := gen.Lookup(name)
			if !ok {
				t.Fatalf("kernel %q not registered", name)
			}
			envG := gk.NewEnv()
			seedFloats(t, k, 41, c.Env, envG)

			run := func(nestEnv any, prog *core.Program) any {
				team := sched.NewTeam(4)
				defer team.Close()
				x := core.NewExec(prog, team, pulse.NewTimer(), 50*time.Microsecond, nestEnv)
				x.Start()
				defer x.Stop()
				return x.Run()
			}
			progI, err := core.Compile(c.Nest, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			progG, err := core.Compile(gk.Nest(envG), core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			got := run(c.Env, progI)
			gotG := run(envG, progG)

			if v, ok := rootValue(got); ok {
				vg, okg := rootValue(gotG)
				if !okg || !floatsClose(v, vg, 1e-9) {
					t.Fatalf("root reduction: %v interpreted, %v generated (ok=%v)", v, gotG, okg)
				}
			}
			compareEnvs(t, k, c.Env, envG, 1e-9, "parallel")
		})
	}
}

// TestDifferentialPromoteAlways runs both backends at 2 workers under a
// source where every poll promotes, so hook calls of one interpreted nest
// run concurrently on both workers as often as the runtime allows: any
// state two calls share shows as a contained panic or a wrong value. Every
// run must succeed, with int arrays exact and float arrays within 1e-9 of
// the generated RunSerial.
func TestDifferentialPromoteAlways(t *testing.T) {
	const runs = 20
	for _, name := range goodKernels {
		t.Run(name, func(t *testing.T) {
			k, c := loadKernel(t, name)
			gk, ok := gen.Lookup(name)
			if !ok {
				t.Fatalf("kernel %q not registered", name)
			}
			envRef, envG := gk.NewEnv(), gk.NewEnv()
			seedFloats(t, k, 59, envRef, c.Env, envG)
			envRef.Reset()
			want := gk.RunSerial(envRef)

			backends := []struct {
				label string
				env   envLike
				nest  *loopnest.Nest
			}{
				{"interpreted", c.Env, c.Nest},
				{"generated", envG, gk.Nest(envG)},
			}
			for _, b := range backends {
				prog, err := core.Compile(b.nest, core.Options{})
				if err != nil {
					t.Fatal(err)
				}
				team := sched.NewTeam(2)
				x := core.NewExec(prog, team, pulse.NewAlways(), time.Millisecond, b.env)
				x.Start()
				for r := 0; r < runs; r++ {
					b.env.Reset()
					got, err := x.RunCtx(context.Background())
					if err != nil {
						t.Fatalf("%s run %d: %v", b.label, r, err)
					}
					if v, ok := rootValue(got); ok && !floatsClose(v, want, 1e-9) {
						t.Fatalf("%s run %d: root reduction %v, serial %v", b.label, r, v, want)
					}
					compareEnvs(t, k, b.env, envRef, 1e-9, b.label)
				}
				x.Stop()
				team.Close()
			}
		})
	}
}

// TestInterpreterAllocsMatchGenerated gates the interpreter's hot path: a
// run through core at 1 worker under a never-firing source may allocate
// at most a fixed slack more than the generated kernel's run on the same
// setup — the runtime's own per-run cost. A heap frame or a boxed value per
// hook call costs thousands of allocations per run here.
func TestInterpreterAllocsMatchGenerated(t *testing.T) {
	const slack = 8
	for _, name := range goodKernels {
		t.Run(name, func(t *testing.T) {
			_, c := loadKernel(t, name)
			gk, ok := gen.Lookup(name)
			if !ok {
				t.Fatalf("kernel %q not registered", name)
			}
			envG := gk.NewEnv()
			allocs := func(nest *loopnest.Nest, env any) float64 {
				prog, err := core.Compile(nest, core.Options{})
				if err != nil {
					t.Fatal(err)
				}
				team := sched.NewTeam(1)
				defer team.Close()
				x := core.NewExec(prog, team, pulse.NewNever(), time.Millisecond, env)
				x.Start()
				defer x.Stop()
				return testing.AllocsPerRun(5, func() { x.Run() })
			}
			interp, generated := allocs(c.Nest, c.Env), allocs(gk.Nest(envG), envG)
			t.Logf("%s: %v allocs/run interpreted, %v generated", name, interp, generated)
			if interp > generated+slack {
				t.Errorf("%s: interpreted run allocates %v objects, generated %v: more than %d over",
					name, interp, generated, slack)
			}
		})
	}
}

// TestRegistryMetadata checks each registered kernel against its source:
// SHA matches the bytes on disk, and the embedded facts parse to the same
// record the analyzer builds today.
func TestRegistryMetadata(t *testing.T) {
	for _, name := range goodKernels {
		t.Run(name, func(t *testing.T) {
			a := emitKernel(t, name)
			gk, ok := gen.Lookup(name)
			if !ok {
				t.Fatalf("kernel %q not registered", name)
			}
			if gk.SourceSHA != a.SHA {
				t.Errorf("SourceSHA %s registered, %s from source", gk.SourceSHA, a.SHA)
			}
			facts, err := gk.Facts()
			if err != nil {
				t.Fatal(err)
			}
			if facts.Kernel != name {
				t.Errorf("embedded facts name %q, want %q", facts.Kernel, name)
			}
			wantJS, err := a.Facts.JSON()
			if err != nil {
				t.Fatal(err)
			}
			gotJS, err := facts.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if string(gotJS) != string(wantJS) {
				t.Errorf("embedded facts drifted from the analyzer's current record")
			}
		})
	}
}

// TestRejectionParity requires codegen to reject exactly the kernels the
// interpreted path rejects, with the same diagnostics. kernels/bad holds
// the seeded violations; nonaffine is warnings-only and must be ACCEPTED
// by both paths.
func TestRejectionParity(t *testing.T) {
	dir := filepath.Join("..", "..", "kernels", "bad")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if ent.IsDir() || filepath.Ext(ent.Name()) != ".hbk" {
			continue
		}
		name := ent.Name()
		t.Run(name, func(t *testing.T) {
			path := "kernels/bad/" + name
			src, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			// Interpreted verdict.
			var interpDiags []string
			interpRejects := false
			k, perr := frontend.ParseFile(path, string(src))
			if perr != nil {
				interpRejects = true
				interpDiags = []string{perr.Error()}
			} else {
				diags := analysis.Vet(path, k)
				if analysis.HasErrors(diags) {
					interpRejects = true
					for _, d := range diags {
						interpDiags = append(interpDiags, d.String())
					}
				} else if _, cerr := frontend.Compile(k); cerr != nil {
					interpRejects = true
					interpDiags = []string{cerr.Error()}
				}
			}
			// Generated verdict.
			_, gerr := Emit(path, src)
			if interpRejects != (gerr != nil) {
				t.Fatalf("interpreted rejects=%v, codegen err=%v", interpRejects, gerr)
			}
			if !interpRejects {
				return
			}
			var genDiags []string
			if ve, ok := gerr.(*VetError); ok {
				for _, d := range ve.Diags {
					genDiags = append(genDiags, d.String())
				}
			} else {
				genDiags = []string{gerr.Error()}
			}
			if len(genDiags) != len(interpDiags) {
				t.Fatalf("diagnostic count: %d interpreted, %d codegen\ninterp: %v\ncodegen: %v",
					len(interpDiags), len(genDiags), interpDiags, genDiags)
			}
			for i := range genDiags {
				if genDiags[i] != interpDiags[i] {
					t.Errorf("diag %d:\ninterp:  %s\ncodegen: %s", i, interpDiags[i], genDiags[i])
				}
			}
		})
	}
}
