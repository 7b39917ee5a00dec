// Package kernelfile loads a .hbk kernel file for execution: read, parse,
// build the analysis facts, then lower to a backend — the checked-in
// generated package (gen/kernels, emitted by `hbcc -emit-go`) when the
// caller asks for it and the registry holds an artifact built from exactly
// these source bytes, else the closure interpreter (internal/frontend).
// Every kernel-file consumer — hbcc and its trace and tune subcommands,
// serve.KernelFile and serve.KernelAuto — loads through here, then compiles
// the nest with hbc.Compile and runs it on an hbc.Team.
package kernelfile

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"

	"hbc"
	"hbc/gen"
	"hbc/internal/analysis"
	"hbc/internal/frontend"
)

// Source is a kernel file read and parsed, not yet lowered to a backend.
type Source struct {
	Path   string
	Bytes  []byte
	Kernel *frontend.Kernel
}

// Read reads and parses a kernel file.
func Read(path string) (*Source, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	k, err := frontend.ParseFile(path, string(src))
	if err != nil {
		return nil, err
	}
	return &Source{Path: path, Bytes: src, Kernel: k}, nil
}

// Options selects the backend.
type Options struct {
	// Generated prefers the registered generated package when its
	// SourceSHA matches the file.
	Generated bool
	// Checked compiles the interpreter with runtime bounds guards, skipping
	// the subscripts the facts prove in bounds. The generated backend has
	// no guards to add and ignores it.
	Checked bool
}

// Kernel is a loaded kernel: a nest over its data environment, ready for
// hbc.Compile and Team.Load.
type Kernel struct {
	*Source
	Nest  *hbc.Nest
	Env   gen.Env
	Facts *analysis.Facts
	// Generated reports that the generated backend was chosen. Fallback
	// says why it was not when Options.Generated asked for it (no artifact
	// registered, or a stale one); the kernel then runs interpreted.
	Generated bool
	Fallback  error
	// CheckedAccesses and ProvenAccesses count the interpreter's guarded
	// and statically proven subscripts under Options.Checked.
	CheckedAccesses, ProvenAccesses int

	runSerial func(gen.Env) float64
}

// Load reads a kernel file and loads it (Read, then Source.Load).
func Load(path string, opts Options) (*Kernel, error) {
	s, err := Read(path)
	if err != nil {
		return nil, err
	}
	return s.Load(opts)
}

// Load lowers the parsed kernel to a backend. The generated backend carries
// the facts baked into its artifact at emit time; the interpreter's are
// built from the source here.
func (s *Source) Load(opts Options) (*Kernel, error) {
	k := &Kernel{Source: s}
	if opts.Generated {
		gk, err := s.current()
		if err == nil {
			if k.Facts, err = gk.Facts(); err != nil {
				return nil, err
			}
			k.Env = gk.NewEnv()
			k.Nest, k.Generated, k.runSerial = gk.Nest(k.Env), true, gk.RunSerial
			return k, nil
		}
		k.Fallback = err
	}
	k.Facts = analysis.BuildFacts(s.Path, s.Kernel)
	var fopts frontend.Options
	if opts.Checked {
		fopts = frontend.Options{CheckBounds: true, Oracle: k.Facts}
	}
	c, err := frontend.CompileWith(s.Kernel, fopts)
	if err != nil {
		return nil, err
	}
	k.Nest, k.Env = c.Nest, c.Env
	k.CheckedAccesses, k.ProvenAccesses = c.CheckedAccesses, c.ProvenAccesses
	return k, nil
}

// current returns the kernel's registered generated package if its
// artifact was built from exactly these source bytes: a stale artifact must
// never silently shadow the interpreter.
func (s *Source) current() (*gen.Kernel, error) {
	name := s.Kernel.Name
	gk, ok := gen.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("no generated kernel %q registered; emit with -emit-go and check it in under gen/kernels", name)
	}
	sum := sha256.Sum256(s.Bytes)
	if sha := hex.EncodeToString(sum[:]); sha != gk.SourceSHA {
		return nil, fmt.Errorf("generated kernel %q is stale: source is %s but the artifact was built from %s; re-run -emit-go",
			name, sha, gk.SourceSHA)
	}
	return gk, nil
}

// RunSerial runs the serial elision once: the generated package's
// specialized driver, or p.RunSeq over the interpreter's environment. p must
// be compiled from k.Nest.
func (k *Kernel) RunSerial(p *hbc.Program) {
	if k.runSerial != nil {
		k.runSerial(k.Env)
		return
	}
	p.RunSeq(k.Env)
}
