package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// workerDefault matches the one default that depends on the machine:
// -workers defaults to runtime.NumCPU().
var workerDefault = regexp.MustCompile(`(worker count) \(default \d+\)`)

// TestFlagsMatchRetiredBinaries pins every subcommand's flag set to the -h
// text of the standalone binary it replaced (testdata/flags/<binary>.txt),
// and plain hbcc's to its own: same names, types, defaults and usage
// strings. Only the usage header line and the NumCPU-dependent -workers
// default are normalized away.
func TestFlagsMatchRetiredBinaries(t *testing.T) {
	golden := map[string]command{
		"hbcc":     runCommand,
		"hbvet":    commands["vet"],
		"hbclint":  commands["lint"],
		"hbctrace": commands["trace"],
		"hbctune":  commands["tune"],
		"hbcgen":   commands["data"],
		"hbcbench": commands["fig"],
	}
	for binary, c := range golden {
		t.Run(binary, func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join("testdata", "flags", binary+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			_, want, _ := strings.Cut(string(raw), "\n")

			fs := flag.NewFlagSet(binary, flag.ContinueOnError)
			var got bytes.Buffer
			fs.SetOutput(&got)
			c.flags(fs)
			fs.PrintDefaults()

			norm := func(s string) string { return workerDefault.ReplaceAllString(s, "$1 (default NumCPU)") }
			if norm(got.String()) != norm(want) {
				t.Errorf("flags drifted from the retired %s binary\n--- got\n%s--- want\n%s", binary, got.String(), want)
			}
		})
	}
}
