package main

// `hbcc vet` statically verifies kernel files: it proves (or refutes)
// that every loop annotated `parallel for` is DOALL, checks reduction
// discipline, and validates the pre/loop/post structure the heartbeat
// middle-end expects — without running the kernel or materializing its
// datasets. See internal/analysis for the rules.
//
// Usage:
//
//	hbcc vet kernels                  # check every .hbk under the tree
//	hbcc vet kernels/spmv.hbk         # check one file
//	hbcc vet -werror kernels          # fail on warnings too
//	hbcc vet -json kernels            # diagnostics as a JSON array
//	hbcc vet -facts kernels/spmv.hbk  # emit the kernel's fact record as JSON
//
// Output is file:line: diagnostics, sorted by position so runs are
// byte-for-byte reproducible. The exit status is 1 if any kernel has errors
// (or, with -werror, warnings).
//
// -facts switches vet from verifier to fact reporter: instead of
// diagnostics it emits the full analysis fact record — purity/effects,
// per-loop symbolic cost and chunk hints, and a bounds verdict for every
// subscript — as JSON (one object for a single file, an array otherwise).
//
// Negative fixtures: a kernel containing `# expect: <rule>` marker comments
// declares the diagnostics it is supposed to trigger. vet verifies the
// analyzer reports the marked rules on the marked lines (errors or
// warnings), prints them, and counts the file as passing — so a corpus can
// carry known-bad kernels (kernels/bad/) that double as regression tests
// for the analyzer.

import (
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"hbc/internal/analysis"
	"hbc/internal/frontend"
	"hbc/internal/kernelfile"
)

func vetCmd(fs *flag.FlagSet) func([]string) {
	var (
		quiet    = fs.Bool("q", false, "suppress warnings")
		werror   = fs.Bool("werror", false, "treat warnings as errors")
		jsonOut  = fs.Bool("json", false, "emit diagnostics as JSON")
		factsOut = fs.Bool("facts", false, "emit analysis fact records (purity, cost, bounds) as JSON instead of vetting")
	)
	return func(args []string) {
		if len(args) == 0 {
			usageExit(fs)
		}
		os.Exit(vet(args, *quiet, *werror, *jsonOut, *factsOut))
	}
}

// vet checks the kernel files under args and returns the exit status.
func vet(args []string, quiet, werror, jsonOut, factsOut bool) int {
	var files []string
	for _, arg := range args {
		matches, err := collect(arg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hbcc vet:", err)
			return 2
		}
		files = append(files, matches...)
	}
	if len(files) == 0 {
		fmt.Fprintln(os.Stderr, "hbcc vet: no .hbk files found")
		return 2
	}
	sort.Strings(files)

	if factsOut {
		return emitFacts(files)
	}
	if jsonOut {
		return emitJSON(files, werror)
	}

	var failed, expected, warnings int
	for _, f := range files {
		res := check(f, quiet, werror)
		if !res.ok {
			failed++
		}
		if res.expected {
			expected++
		}
		warnings += res.warnings
	}
	fmt.Printf("hbcc vet: %d kernel(s) checked", len(files))
	if expected > 0 {
		fmt.Printf(", %d with expected diagnostics", expected)
	}
	if warnings > 0 {
		fmt.Printf(", %d warning(s)", warnings)
	}
	if failed > 0 {
		fmt.Printf(", %d FAILED", failed)
	}
	fmt.Println()
	if failed > 0 {
		return 1
	}
	return 0
}

// emitFacts prints the fact record of every file as JSON: a single object
// for one file, an array for several. Facts are built even for kernels the
// vetter rejects (BuildFacts never fails); only unreadable or unparseable
// files are fatal.
func emitFacts(files []string) int {
	var records []*analysis.Facts
	for _, f := range files {
		src, err := kernelfile.Read(f)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hbcc vet:", err)
			return 2
		}
		records = append(records, analysis.BuildFacts(f, src.Kernel))
	}
	var out []byte
	var err error
	if len(records) == 1 {
		out, err = records[0].JSON()
	} else {
		out, err = json.MarshalIndent(records, "", "  ")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hbcc vet:", err)
		return 2
	}
	fmt.Println(string(out))
	return 0
}

// jsonDiag is the machine-readable diagnostic shape for -json.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col,omitempty"`
	Severity string `json:"severity"`
	Rule     string `json:"rule"`
	Msg      string `json:"msg"`
}

// emitJSON prints every diagnostic across the files as one JSON array
// (already position-sorted per file by the analyzer) and returns the exit
// status: 1 when any error — or, with -werror, any warning — was reported.
func emitJSON(files []string, werror bool) int {
	diags := []jsonDiag{}
	status := 0
	for _, f := range files {
		src, err := kernelfile.Read(f)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hbcc vet:", err)
			return 2
		}
		for _, d := range analysis.Vet(f, src.Kernel) {
			sev := "warning"
			if d.Severity == analysis.Err {
				sev = "error"
			}
			if d.Severity == analysis.Err || werror {
				status = 1
			}
			diags = append(diags, jsonDiag{
				File: d.File, Line: d.Line, Col: d.Col,
				Severity: sev, Rule: d.Rule, Msg: d.Msg,
			})
		}
	}
	out, err := json.MarshalIndent(diags, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "hbcc vet:", err)
		return 2
	}
	fmt.Println(string(out))
	return status
}

// collect expands a path argument into .hbk files (recursively for
// directories).
func collect(arg string) ([]string, error) {
	info, err := os.Stat(arg)
	if err != nil {
		return nil, err
	}
	if !info.IsDir() {
		return []string{arg}, nil
	}
	var files []string
	err = filepath.WalkDir(arg, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(path, ".hbk") {
			files = append(files, path)
		}
		return nil
	})
	return files, err
}

type result struct {
	ok       bool
	expected bool // carried # expect: markers that all matched
	warnings int
}

func check(file string, quiet, werror bool) result {
	src, err := os.ReadFile(file)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hbcc vet:", err)
		return result{}
	}
	markers := expectMarkers(string(src))

	k, err := frontend.ParseFile(file, string(src))
	if err != nil {
		fmt.Println(err)
		return result{}
	}
	diags := analysis.Vet(file, k)

	var errs, warns []analysis.Diag
	for _, d := range diags {
		if d.Severity == analysis.Err || werror {
			errs = append(errs, d)
		} else {
			warns = append(warns, d)
		}
	}
	for _, d := range warns {
		if !quiet {
			fmt.Println(d)
		}
	}

	if len(markers) > 0 {
		return checkExpected(file, markers, errs, warns)
	}
	for _, d := range errs {
		fmt.Println(d)
	}
	return result{ok: len(errs) == 0, warnings: len(warns)}
}

// expectRe matches `# expect: <rule>` markers in fixture kernels.
var expectRe = regexp.MustCompile(`#\s*expect:\s*([a-z-]+)`)

// expectMarkers returns line -> expected rule for every marker comment.
func expectMarkers(src string) map[int]string {
	out := map[int]string{}
	for i, line := range strings.Split(src, "\n") {
		if m := expectRe.FindStringSubmatch(line); m != nil {
			out[i+1] = m[1]
		}
	}
	return out
}

// checkExpected verifies a negative fixture: every marker must be hit by a
// diagnostic — error or warning — with the marked rule on the marked line.
// Unmarked errors fail the fixture; unmarked warnings are tolerated (they
// were already printed by check). Missing markers are reported in line
// order so fixture failures are deterministic.
func checkExpected(file string, markers map[int]string, errs, warns []analysis.Diag) result {
	ok := true
	matched := map[int]bool{}
	for _, d := range errs {
		fmt.Println(d)
		if rule, want := markers[d.Line]; want && rule == d.Rule {
			matched[d.Line] = true
			continue
		}
		fmt.Printf("%s:%d: unexpected diagnostic [%s] in fixture\n", file, d.Line, d.Rule)
		ok = false
	}
	for _, d := range warns {
		if rule, want := markers[d.Line]; want && rule == d.Rule {
			matched[d.Line] = true
		}
	}
	lines := make([]int, 0, len(markers))
	for line := range markers {
		lines = append(lines, line)
	}
	sort.Ints(lines)
	for _, line := range lines {
		if !matched[line] {
			fmt.Printf("%s:%d: missing expected diagnostic [%s]\n", file, line, markers[line])
			ok = false
		}
	}
	return result{ok: ok, expected: ok, warnings: len(warns)}
}
