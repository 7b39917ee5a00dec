package hbc_test

import (
	"strings"
	"testing"

	"hbc"
	"hbc/internal/analysis"
	"hbc/internal/core"
)

// TestConfigOptions pins the one Config→core.Options translation every
// kernel path compiles through: each row compiles a one-loop nest and
// checks the options the core program ended up with, or the Compile error.
func TestConfigOptions(t *testing.T) {
	hint := &analysis.Facts{Loops: []analysis.LoopFacts{{Parallel: true, Leaf: true, ChunkHint: 32}}}
	cases := []struct {
		name    string
		cfg     hbc.Config
		check   func(o core.Options) bool
		wantErr string
	}{
		{"zero value is adaptive from chunk 1", hbc.Config{},
			func(o core.Options) bool {
				return o.StaticChunk == 0 && o.InitialChunk == 1 && o.Mode == core.ModeHBC
			}, ""},
		{"StaticChunk alone selects static", hbc.Config{StaticChunk: 16},
			func(o core.Options) bool { return o.StaticChunk == 16 }, ""},
		{"static sizes by StaticChunk", hbc.Config{StaticChunk: 1},
			func(o core.Options) bool { return o.StaticChunk == 1 }, ""},
		{"negative StaticChunk is a Compile error", hbc.Config{StaticChunk: -8}, nil, "negative"},
		{"Facts hint seeds the initial chunk", hbc.Config{Facts: hint},
			func(o core.Options) bool { return o.InitialChunk == 32 }, ""},
		{"explicit InitialChunk beats the Facts hint", hbc.Config{Facts: hint, InitialChunk: 5},
			func(o core.Options) bool { return o.InitialChunk == 5 }, ""},
		{"TPAL selects the TPAL mode", hbc.Config{TPAL: true},
			func(o core.Options) bool { return o.Mode == core.ModeTPAL }, ""},
		{"schedule knobs pass through",
			hbc.Config{Policy: hbc.InnerFirst, TargetPolls: 8, WindowSize: 16, DisablePromotion: true},
			func(o core.Options) bool {
				return o.Policy == core.PolicyInnerFirst && o.TargetPolls == 8 && o.WindowSize == 16 && o.DisablePromotion
			}, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, err := hbc.Compile(oneLoop(), c.cfg)
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("Compile error = %v, want one mentioning %q", err, c.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if o := hbc.CompiledOptions(p); !c.check(o) {
				t.Fatalf("compiled options %+v", o)
			}
		})
	}
}

func oneLoop() *hbc.Nest {
	return &hbc.Nest{Name: "one", Root: &hbc.Loop{
		Name:   "i",
		Bounds: func(any, []int64) (int64, int64) { return 0, 8 },
		Body:   func(any, []int64, int64, int64, any) {},
	}}
}
