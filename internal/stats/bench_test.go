package stats

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestBenchSuiteRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_serve.json")
	s := &BenchSuite{Suite: "serve", GoOS: "linux", GoArch: "amd64", Benchmarks: []BenchRecord{
		{Name: "Serve/closed", NsPerOp: 150.5, N: 300},
		{Name: "Serve/open", NsPerOp: 50000, N: 5000, Extra: map[string]float64{"p99_ms": 87.6}},
	}}
	if err := s.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got BenchSuite
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Suite != "serve" || len(got.Benchmarks) != 2 {
		t.Fatalf("round trip mangled the suite: %+v", got)
	}
	if r := got.Benchmarks[1]; r.Extra["p99_ms"] != 87.6 {
		t.Fatalf("extra metrics lost: %+v", r)
	}
}
