package codegen

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestBuildOutOfTree emits spmv and testdata's depth-3 chain3 and compiles
// each as a standalone module against the repository through
// codegen.Build — proving generated packages, interior slice tasks
// included, stand alone on the public hbc surface (hbc + hbc/gen) with no
// reach into internal packages.
func TestBuildOutOfTree(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping go-toolchain build")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	for _, a := range []*Artifact{emitKernel(t, "spmv"), emitTestdata(t, "chain3")} {
		work := t.TempDir()
		pkgDir, err := Build(a, work, filepath.Join("..", ".."))
		if err != nil {
			t.Fatalf("Build(%s): %v", a.Name, err)
		}
		if _, err := os.Stat(filepath.Join(pkgDir, a.FileName)); err != nil {
			t.Fatalf("%s: built package missing source: %v", a.Name, err)
		}
	}
}
