package main

// `hbcc lint` runs the runtime-invariant lint suite (internal/lint) over Go
// package directories: //hbc:noalloc allocation-freedom, //hbc:padded
// cache-line pads, and RunCtx serialization.
//
// Usage:
//
//	hbcc lint [-list] [dir|./...]...
//
// Arguments are package directories; the Go-style `dir/...` suffix walks
// recursively (skipping testdata and hidden directories). With no
// arguments, ./... is linted. Exit status 1 means findings were reported,
// 2 means the run itself failed.

import (
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"hbc/internal/lint"
)

func lintCmd(fs *flag.FlagSet) func([]string) {
	list := fs.Bool("list", false, "list the analyzers and exit")
	return func(args []string) {
		if *list {
			for _, a := range lint.All() {
				fmt.Printf("%-14s %s\n", a.Name, a.Doc)
			}
			return
		}
		if len(args) == 0 {
			args = []string{"./..."}
		}
		dirs, err := expand(args)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hbcc lint:", err)
			os.Exit(2)
		}
		found := 0
		for _, dir := range dirs {
			pkg, err := lint.Load(dir)
			if err != nil {
				fmt.Fprintln(os.Stderr, "hbcc lint:", err)
				os.Exit(2)
			}
			for _, f := range lint.Run(pkg, lint.All()) {
				fmt.Println(f)
				found++
			}
		}
		if found > 0 {
			fmt.Fprintf(os.Stderr, "hbcc lint: %d finding(s)\n", found)
			os.Exit(1)
		}
	}
}

// expand resolves argument patterns to a sorted, deduplicated list of
// directories that contain Go files.
func expand(args []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if !seen[dir] && hasGoFiles(dir) {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, arg := range args {
		if root, ok := strings.CutSuffix(arg, "..."); ok {
			root = filepath.Clean(strings.TrimSuffix(root, "/"))
			if root == "" {
				root = "."
			}
			err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor") {
					return fs.SkipDir
				}
				add(path)
				return nil
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		add(filepath.Clean(arg))
	}
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}
