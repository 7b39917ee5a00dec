package codegen

import (
	"bytes"
	"go/format"
	"os"
	"path/filepath"
	"testing"
)

// emitKernel emits a kernel from the repository's kernels/ directory with
// the canonical repo-relative source label, so test output matches both
// the golden files and the checked-in gen/kernels packages.
func emitKernel(t *testing.T, name string) *Artifact {
	t.Helper()
	return emitFile(t, "kernels/"+name+".hbk", filepath.Join("..", "..", "kernels", name+".hbk"))
}

// emitTestdata emits a kernel kept under testdata/ rather than in the
// suite: shapes the emitter must handle that the registry does not carry.
func emitTestdata(t *testing.T, name string) *Artifact {
	t.Helper()
	return emitFile(t, "testdata/"+name+".hbk", filepath.Join("testdata", name+".hbk"))
}

// emitFile emits the kernel at path under the source label.
func emitFile(t *testing.T, label, path string) *Artifact {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Emit(label, src)
	if err != nil {
		t.Fatalf("Emit(%s): %v", label, err)
	}
	return a
}

// TestGoldenFiles locks the emitted code for four representative shapes:
// spmv (2-level nest, sum + leftover tail), dotnorm (root leaf reducing
// into the kernel result), stencil (root leaf, if/else chains, no
// reduction), and testdata's chain3 (3-level chain, hooks at two levels,
// a slice task at every level). Regenerate with:
// UPDATE_GOLDEN=1 go test ./internal/codegen -run Golden
func TestGoldenFiles(t *testing.T) {
	update := os.Getenv("UPDATE_GOLDEN") != ""
	for _, name := range []string{"spmv", "dotnorm", "stencil", "chain3"} {
		var a *Artifact
		if name == "chain3" {
			a = emitTestdata(t, name)
		} else {
			a = emitKernel(t, name)
		}
		golden := filepath.Join("testdata", name+".go.golden")
		if update {
			if err := os.WriteFile(golden, a.Code, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Code, want) {
			t.Errorf("%s: emitted code differs from %s (set UPDATE_GOLDEN=1 to regenerate)", name, golden)
		}
	}
}

// TestEmittedCodeIsGofmtClean requires byte-stable output under gofmt for
// every kernel in the suite.
func TestEmittedCodeIsGofmtClean(t *testing.T) {
	for _, name := range []string{"spmv", "dotnorm", "stencil", "escape", "powersum"} {
		a := emitKernel(t, name)
		formatted, err := format.Source(a.Code)
		if err != nil {
			t.Fatalf("%s: emitted code does not parse: %v", name, err)
		}
		if !bytes.Equal(formatted, a.Code) {
			t.Errorf("%s: emitted code is not gofmt-clean", name)
		}
	}
}

// TestEmitDeterministic re-emits and requires identical bytes: the backend
// must be a pure function of the source.
func TestEmitDeterministic(t *testing.T) {
	for _, name := range []string{"spmv", "escape"} {
		a := emitKernel(t, name)
		b := emitKernel(t, name)
		if !bytes.Equal(a.Code, b.Code) {
			t.Errorf("%s: two emissions differ", name)
		}
		if a.SHA != b.SHA {
			t.Errorf("%s: SHA differs across emissions", name)
		}
	}
}

// TestCheckedInPackagesCurrent re-emits every kernel and compares against
// the committed gen/kernels package, failing on drift between the emitter
// and the checked-in artifacts the registry serves.
func TestCheckedInPackagesCurrent(t *testing.T) {
	for _, name := range []string{"spmv", "dotnorm", "stencil", "escape", "powersum"} {
		a := emitKernel(t, name)
		committed := filepath.Join("..", "..", "gen", "kernels", a.PackageName, a.FileName)
		want, err := os.ReadFile(committed)
		if err != nil {
			t.Fatalf("%s: reading checked-in package: %v", name, err)
		}
		if !bytes.Equal(a.Code, want) {
			t.Errorf("%s: checked-in %s is stale; regenerate with hbcc -emit-go", name, committed)
		}
	}
}
