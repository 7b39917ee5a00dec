package stats

// Machine-readable benchmark records: the JSON schema of the
// BENCH_serve.json artifact cmd/hbcload writes.

import (
	"encoding/json"
	"os"
)

// BenchRecord is one benchmark result.
type BenchRecord struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// N is the iteration count the measurement averaged over.
	N int `json:"n"`
	// Extra holds custom metrics, e.g. "p99_ms".
	Extra map[string]float64 `json:"extra,omitempty"`
}

// BenchSuite is a set of benchmark results plus the platform they were
// measured on.
type BenchSuite struct {
	Suite      string        `json:"suite"`
	GoOS       string        `json:"goos"`
	GoArch     string        `json:"goarch"`
	Benchmarks []BenchRecord `json:"benchmarks"`
}

// WriteFile writes the suite as indented JSON.
func (s *BenchSuite) WriteFile(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
