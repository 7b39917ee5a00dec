package serve

// Internal tests for KernelAuto's backend selection: the exported behavior
// (same results either way) is covered by the pool tests; here we assert
// WHICH backend each case picks, which needs the unexported runnable type.

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"hbc"
	_ "hbc/gen/kernels" // register the checked-in generated kernels
)

func autoBuild(t *testing.T, path string) Runnable {
	t.Helper()
	team := hbc.NewTeam(hbc.Workers(2))
	t.Cleanup(team.Close)
	r, err := KernelAuto(path)(0, team)
	if err != nil {
		t.Fatalf("KernelAuto(%s): %v", path, err)
	}
	t.Cleanup(r.Close)
	return r
}

// TestKernelAutoPicksGenerated: a kernel with a current registered artifact
// loads through the generated package, and still produces the interpreted
// path's answer.
func TestKernelAutoPicksGenerated(t *testing.T) {
	r := autoBuild(t, filepath.Join("..", "..", "kernels", "dotnorm.hbk"))
	g, ok := r.(*kernelRunnable)
	if !ok || !g.generated {
		t.Fatalf("dotnorm runnable is %T %+v, want the generated backend (artifact registered and current)", r, r)
	}
	v, err := g.RunCtx(context.Background())
	if err != nil {
		t.Fatalf("generated run: %v", err)
	}
	if got := *v.(*float64); got != 65536 {
		t.Fatalf("generated dotnorm = %v, want 65536", got)
	}
}

// TestKernelAutoFallsBackOnStaleSHA: editing the kernel source (here, one
// appended blank line) must drop the registry hit and serve interpreted —
// never run a stale artifact.
func TestKernelAutoFallsBackOnStaleSHA(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "kernels", "dotnorm.hbk"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "dotnorm.hbk")
	if err := os.WriteFile(path, append(src, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	r := autoBuild(t, path)
	if k, ok := r.(*kernelRunnable); !ok || k.generated {
		t.Fatalf("edited dotnorm runnable is %T %+v, want the interpreter (stale artifact must not run)", r, r)
	}
}

// TestKernelAutoFallsBackOnUnregistered: a kernel with no artifact at all
// serves through the interpreted path.
func TestKernelAutoFallsBackOnUnregistered(t *testing.T) {
	src := "kernel nobodyhome\nlet n = 64\narray y float[n] = 0.0\n\nparallel for i = 0 .. n {\n    y[i] = 1.0\n}\n"
	path := filepath.Join(t.TempDir(), "nobodyhome.hbk")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	r := autoBuild(t, path)
	if k, ok := r.(*kernelRunnable); !ok || k.generated {
		t.Fatalf("unregistered kernel runnable is %T %+v, want the interpreter", r, r)
	}
}
