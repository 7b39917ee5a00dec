package kernelfile

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hbc"
	_ "hbc/gen/kernels" // register the checked-in generated kernels
)

// TestLoadBackendChoice: the generated backend is chosen only when asked
// for and only for an artifact built from exactly the file's bytes; every
// other case runs interpreted and, when the generated backend was asked
// for, says why in Fallback.
func TestLoadBackendChoice(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "kernels", "dotnorm.hbk"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, b []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	current := write("dotnorm.hbk", src)
	stale := write("stale.hbk", append(src, '\n'))
	unregistered := write("nobodyhome.hbk", []byte("kernel nobodyhome\nlet n = 64\narray y float[n] = 0.0\n\nparallel for i = 0 .. n {\n    y[i] = 1.0\n}\n"))

	cases := []struct {
		name      string
		path      string
		opts      Options
		generated bool
		fallback  string
	}{
		{"current, generated asked", current, Options{Generated: true}, true, ""},
		{"current, interpreter", current, Options{}, false, ""},
		{"stale", stale, Options{Generated: true}, false, "stale"},
		{"unregistered", unregistered, Options{Generated: true}, false, "no generated kernel"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			k, err := Load(c.path, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			if k.Generated != c.generated || k.Facts == nil || k.Nest == nil || k.Env == nil {
				t.Fatalf("generated=%v facts=%v nest=%v env=%v, want generated=%v and all set",
					k.Generated, k.Facts != nil, k.Nest != nil, k.Env != nil, c.generated)
			}
			if got := k.Fallback; (c.fallback == "") != (got == nil) || got != nil && !strings.Contains(got.Error(), c.fallback) {
				t.Fatalf("Fallback = %v, want %q", got, c.fallback)
			}
		})
	}
}

// TestRunSerialMatchesAcrossBackends: the serial runner of both backends
// computes the same outputs.
func TestRunSerialMatchesAcrossBackends(t *testing.T) {
	path := filepath.Join("..", "..", "kernels", "spmv.hbk")
	sums := map[bool]float64{}
	for _, generated := range []bool{false, true} {
		k, err := Load(path, Options{Generated: generated})
		if err != nil {
			t.Fatal(err)
		}
		if k.Generated != generated {
			t.Fatalf("Generated = %v, want %v", k.Generated, generated)
		}
		p, err := hbc.Compile(k.Nest, hbc.Config{Facts: k.Facts})
		if err != nil {
			t.Fatal(err)
		}
		k.RunSerial(p)
		a, ok := k.Env.FloatArray("out")
		if !ok {
			t.Fatal("spmv declares no float array out")
		}
		for _, v := range a {
			sums[generated] += v
		}
	}
	if sums[false] != sums[true] || sums[false] == 0 {
		t.Fatalf("serial sums interpreted %v vs generated %v", sums[false], sums[true])
	}
}
