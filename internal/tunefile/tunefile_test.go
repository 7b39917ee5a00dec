package tunefile

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	f := New()
	f.Set("spmv", Choice{Policy: "adaptive", TargetPolls: 8, WindowSize: 4, MedianNs: 123, Workers: 4})
	f.Set("mandelbrot", Choice{Policy: "guided", MinChunk: 16})
	path := filepath.Join(t.TempDir(), "tuned.json")
	if err := f.Save(path); err != nil {
		t.Fatal(err)
	}
	g, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.Version != Version {
		t.Fatalf("version = %d, want %d", g.Version, Version)
	}
	c, ok := g.Get("spmv")
	if !ok || c.Policy != "adaptive" || c.TargetPolls != 8 || c.MedianNs != 123 {
		t.Fatalf("spmv choice = %+v, ok=%v", c, ok)
	}
	if _, ok := g.Get("missing"); ok {
		t.Fatal("Get on a missing kernel reported ok")
	}
}

func TestLoadRejectsBadFiles(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name, body, want string
	}{
		{"bad version", `{"version": 99, "kernels": {}}`, "version"},
		{"unknown policy", `{"version": 1, "kernels": {"k": {"policy": "banana"}}}`, "banana"},
		{"negative knob", `{"version": 1, "kernels": {"k": {"policy": "static", "static_chunk": -4}}}`, "negative"},
		{"not json", `nope`, "invalid"},
	}
	for _, c := range cases {
		path := filepath.Join(dir, strings.ReplaceAll(c.name, " ", "_")+".json")
		if err := os.WriteFile(path, []byte(c.body), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Load(path)
		if err == nil {
			t.Errorf("%s: Load accepted the file", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}
