package hbc_test

import (
	"reflect"
	"testing"

	"hbc"
	"hbc/internal/analysis"
	"hbc/internal/core"
	"hbc/internal/tunefile"
)

// TestConfigOptions pins the one Config→core.Options translation every
// kernel path compiles through, with the tunefile overlay applied on top:
// each row compiles a one-loop nest and checks the options the core
// program ended up with.
func TestConfigOptions(t *testing.T) {
	hint := &analysis.Facts{Loops: []analysis.LoopFacts{{Parallel: true, Leaf: true, ChunkHint: 32}}}
	weights := []float64{1, 2}
	cases := []struct {
		name  string
		cfg   hbc.Config
		tuned *tunefile.Choice
		check func(o core.Options) bool
	}{
		{"zero value is adaptive from chunk 1", hbc.Config{},
			nil, func(o core.Options) bool {
				return o.Chunk.Kind == core.ChunkAdaptive && o.InitialChunk == 1 && o.Mode == core.ModeHBC
			}},
		{"StaticChunk alone selects static", hbc.Config{StaticChunk: 16},
			nil, func(o core.Options) bool { return o.Chunk.Kind == core.ChunkStatic && o.Chunk.Size == 16 }},
		{"static sizes by StaticChunk", hbc.Config{Sched: "static", StaticChunk: 12},
			nil, func(o core.Options) bool { return o.Chunk.Kind == core.ChunkStatic && o.Chunk.Size == 12 }},
		{"auto passes StaticChunk to its static candidate", hbc.Config{Sched: "auto", StaticChunk: 12},
			nil, func(o core.Options) bool { return o.Chunk.Kind == core.ChunkAuto && o.Chunk.Size == 12 }},
		{"Facts hint seeds the initial chunk", hbc.Config{Facts: hint},
			nil, func(o core.Options) bool { return o.InitialChunk == 32 }},
		{"explicit InitialChunk beats the Facts hint", hbc.Config{Facts: hint, InitialChunk: 5},
			nil, func(o core.Options) bool { return o.InitialChunk == 5 }},
		{"TPAL selects the TPAL mode", hbc.Config{TPAL: true},
			nil, func(o core.Options) bool { return o.Mode == core.ModeTPAL }},
		{"schedule knobs pass through",
			hbc.Config{Sched: "weighted", MinChunk: 3, SchedWeights: weights, SchedProfileRuns: 2},
			nil, func(o core.Options) bool {
				return o.Chunk.Kind == core.ChunkWeighted && o.Chunk.MinChunk == 3 &&
					reflect.DeepEqual(o.Chunk.Weights, weights) && o.Chunk.ProfileRuns == 2
			}},
		{"tuned knobs > 0 override the base config",
			hbc.Config{TargetPolls: 2, WindowSize: 4, StaticChunk: 6},
			&tunefile.Choice{Policy: "static", StaticChunk: 9, TargetPolls: 8, WindowSize: 16},
			func(o core.Options) bool {
				return o.Chunk.Kind == core.ChunkStatic && o.Chunk.Size == 9 && o.TargetPolls == 8 && o.WindowSize == 16
			}},
		{"tuned zero knobs keep the base config",
			hbc.Config{TargetPolls: 2, WindowSize: 4, StaticChunk: 6, MinChunk: 5, SchedProfileRuns: 7},
			&tunefile.Choice{Policy: "auto"},
			func(o core.Options) bool {
				return o.Chunk.Kind == core.ChunkAuto && o.Chunk.Size == 6 && o.Chunk.MinChunk == 5 &&
					o.Chunk.ProfileRuns == 7 && o.TargetPolls == 2 && o.WindowSize == 4
			}},
		{"tuned trapezoid with MinChunk and TargetPolls",
			hbc.Config{TargetPolls: 4, WindowSize: 8},
			&tunefile.Choice{Policy: "trapezoid", MinChunk: 8, TargetPolls: 16},
			func(o core.Options) bool {
				return o.Chunk.Kind == core.ChunkTrapezoid && o.Chunk.MinChunk == 8 && o.TargetPolls == 16 && o.WindowSize == 8
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg
			if c.tuned != nil {
				var err error
				if cfg, err = c.tuned.Apply(cfg); err != nil {
					t.Fatal(err)
				}
			}
			p, err := hbc.Compile(oneLoop(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if o := hbc.CompiledOptions(p); !c.check(o) {
				t.Fatalf("compiled options %+v", o)
			}
		})
	}
	if _, err := (tunefile.Choice{Policy: "nope"}).Apply(hbc.Config{}); err == nil {
		t.Fatal("unknown tuned policy accepted")
	}
	if _, err := (tunefile.Choice{Policy: "static", StaticChunk: -1}).Apply(hbc.Config{}); err == nil {
		t.Fatal("negative tuned knob accepted")
	}
}

func oneLoop() *hbc.Nest {
	return &hbc.Nest{Name: "one", Root: &hbc.Loop{
		Name:   "i",
		Bounds: func(any, []int64) (int64, int64) { return 0, 8 },
		Body:   func(any, []int64, int64, int64, any) {},
	}}
}
