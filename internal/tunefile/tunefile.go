// Package tunefile persists per-kernel scheduling-policy choices — the
// contract between the auto-tuner (`hbcc tune -policies -save`) and the
// serve layer (serve.WithTunedPolicies), which loads the file and applies
// each kernel's winning policy (Choice.Apply) when it compiles that kernel.
//
// The file is plain JSON, keyed by kernel name:
//
//	{
//	  "version": 1,
//	  "kernels": {
//	    "spmv": {"policy": "adaptive", "target_polls": 4, "window_size": 8,
//	             "median_ns": 1234567, "workers": 8}
//	  }
//	}
//
// Only the policy name is required; the remaining knobs default to the
// runtime's own defaults when omitted. MedianNs and Workers are provenance
// (what the tuner measured, at what team size), not configuration.
package tunefile

import (
	"encoding/json"
	"fmt"
	"os"

	"hbc"
	"hbc/internal/core"
)

// Version is the current file schema version.
const Version = 1

// Choice is one kernel's tuned scheduling configuration.
type Choice struct {
	// Policy is the schedule name (core.ScheduleNames): "adaptive",
	// "static", "guided", "factoring", "trapezoid", "weighted", "auto", ...
	Policy string `json:"policy"`
	// StaticChunk is the chunk size for the static policy (and the static
	// candidate under auto); 0 keeps the default.
	StaticChunk int64 `json:"static_chunk,omitempty"`
	// MinChunk floors the decreasing schedules; 0 keeps the default (1).
	MinChunk int64 `json:"min_chunk,omitempty"`
	// TargetPolls / WindowSize tune Adaptive Chunking; 0 keeps defaults.
	TargetPolls int64 `json:"target_polls,omitempty"`
	WindowSize  int   `json:"window_size,omitempty"`
	// ProfileRuns is the auto selector's per-candidate profiling length.
	ProfileRuns int `json:"profile_runs,omitempty"`
	// MedianNs is the median invocation time the tuner measured for this
	// choice, for provenance and staleness checks.
	MedianNs int64 `json:"median_ns,omitempty"`
	// Workers is the team size the tuner measured at.
	Workers int `json:"workers,omitempty"`
}

// Validate checks the choice is applicable: a known policy name and
// non-negative knobs.
func (c Choice) Validate() error {
	if _, err := core.ParseChunkKind(c.Policy); err != nil {
		return err
	}
	if c.StaticChunk < 0 || c.MinChunk < 0 || c.TargetPolls < 0 || c.WindowSize < 0 || c.ProfileRuns < 0 {
		return fmt.Errorf("tunefile: negative tuning knob in %+v", c)
	}
	return nil
}

// Apply overlays the choice onto cfg: the policy always, each knob only
// when > 0, so zero-valued knobs keep whatever cfg already holds. Load
// validated every entry, but a File assembled in code may not have been,
// so the choice is validated here too.
func (c Choice) Apply(cfg hbc.Config) (hbc.Config, error) {
	if err := c.Validate(); err != nil {
		return cfg, err
	}
	cfg.Sched = c.Policy
	if c.StaticChunk > 0 {
		cfg.StaticChunk = c.StaticChunk
	}
	if c.MinChunk > 0 {
		cfg.MinChunk = c.MinChunk
	}
	if c.TargetPolls > 0 {
		cfg.TargetPolls = c.TargetPolls
	}
	if c.WindowSize > 0 {
		cfg.WindowSize = c.WindowSize
	}
	if c.ProfileRuns > 0 {
		cfg.SchedProfileRuns = c.ProfileRuns
	}
	return cfg, nil
}

// File is a set of per-kernel choices.
type File struct {
	Version int               `json:"version"`
	Kernels map[string]Choice `json:"kernels"`
}

// New returns an empty tuning file at the current version.
func New() *File {
	return &File{Version: Version, Kernels: map[string]Choice{}}
}

// Set records kernel's choice.
func (f *File) Set(kernel string, c Choice) {
	if f.Kernels == nil {
		f.Kernels = map[string]Choice{}
	}
	f.Kernels[kernel] = c
}

// Get returns kernel's choice, if present. A nil file holds no choices.
func (f *File) Get(kernel string) (Choice, bool) {
	if f == nil {
		return Choice{}, false
	}
	c, ok := f.Kernels[kernel]
	return c, ok
}

// Load reads and validates a tuning file. Every entry must carry a known
// policy name — a file written for a future schema or with a typo'd policy
// fails here, at startup, rather than at first request.
func Load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f := &File{}
	if err := json.Unmarshal(data, f); err != nil {
		return nil, fmt.Errorf("tunefile: %s: %w", path, err)
	}
	if f.Version != Version {
		return nil, fmt.Errorf("tunefile: %s: version %d, want %d", path, f.Version, Version)
	}
	for kernel, c := range f.Kernels {
		if err := c.Validate(); err != nil {
			return nil, fmt.Errorf("tunefile: %s: kernel %q: %w", path, kernel, err)
		}
	}
	return f, nil
}

// Save writes the file as indented JSON (map keys sort, so output is
// deterministic and diff-friendly).
func (f *File) Save(path string) error {
	if f.Version == 0 {
		f.Version = Version
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
