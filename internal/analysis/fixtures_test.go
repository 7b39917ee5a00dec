package analysis

import (
	"os"
	"path/filepath"
	"testing"

	"hbc/internal/frontend"
)

// TestBadFixtures runs the analyzer over the known-bad kernels in
// kernels/bad/ and asserts the exact rule and line of each expected error.
// The same fixtures are verified by `hbcc vet` via their `# expect:` markers;
// this table pins them down independently so an analyzer regression fails
// `go test` even if `hbcc vet`'s marker matching were broken.
func TestBadFixtures(t *testing.T) {
	cases := []struct {
		file string
		rule string
		line int
	}{
		{"writewrite.hbk", RuleWriteWrite, 8},
		{"localcarry.hbk", RuleLoopCarried, 9},
		{"accassign.hbk", RuleRedAssign, 11},
		{"badinit.hbk", RuleRedIdentity, 10},
		{"readhot.hbk", RuleLoopCarried, 8},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			path := filepath.Join("..", "..", "kernels", "bad", tc.file)
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			k, err := frontend.ParseFile(path, string(src))
			if err != nil {
				t.Fatalf("fixture must parse (it is semantically bad, not syntactically): %v", err)
			}
			diags := Vet(path, k)
			if !HasErrors(diags) {
				t.Fatalf("fixture produced no errors: %v", diags)
			}
			for _, d := range diags {
				if d.Severity != Err {
					continue
				}
				if d.Rule == tc.rule && d.Line == tc.line {
					return
				}
				t.Errorf("unexpected error %v (want [%s] at line %d)", d, tc.rule, tc.line)
			}
			t.Fatalf("missing error [%s] at line %d; got %v", tc.rule, tc.line, diags)
		})
	}
}
