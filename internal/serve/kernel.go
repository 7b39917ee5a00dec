package serve

// Kernel-file builders: KernelFile serves a .hbk kernel through the closure
// interpreter, KernelAuto through its checked-in specialized Go package
// (gen/kernels, emitted by `hbcc -emit-go`) when one is registered and
// current. Both load through internal/kernelfile and run on the shard's
// Team, so the pool treats the two backends identically.

import (
	"context"
	"fmt"

	"hbc"
	"hbc/gen"
	"hbc/internal/analysis"
	"hbc/internal/kernelfile"
)

// kernelRunnable adapts a loaded .hbk kernel to Runnable: reset the
// shard-local data environment, then run under the request context. It also
// carries the kernel's analysis facts (FactsProvider) so the pool can gate
// memoization on proven purity.
type kernelRunnable struct {
	r         *hbc.Runner
	env       gen.Env
	facts     *analysis.Facts
	sched     string
	generated bool
}

func (k *kernelRunnable) RunCtx(ctx context.Context) (any, error) {
	k.env.Reset()
	return k.r.RunCtx(ctx)
}

func (k *kernelRunnable) Close() { k.r.Close() }

func (k *kernelRunnable) Facts() *analysis.Facts { return k.facts }

func (k *kernelRunnable) Schedule() string { return k.sched }

// KernelFile returns a BuildFunc that parses, vets, and compiles the .hbk
// kernel file independently on each shard — each shard materializes its own
// data environment, so shards share no mutable kernel state. The fact
// engine runs once per shard too; its facts feed the runtime's initial
// chunk hint and the pool's purity gate. Options (WithTunedPolicies) can
// overlay a persisted scheduling choice onto the compile config.
func KernelFile(path string, opts ...KernelOption) BuildFunc {
	return buildKernel(path, kernelfile.Options{}, opts)
}

// KernelAuto returns a BuildFunc that serves the kernel through its
// generated package when the registry (hbc/gen) holds an artifact whose
// SourceSHA matches the file on disk, and through KernelFile's interpreted
// path otherwise. A stale artifact — registered name but mismatched SHA —
// falls back rather than erroring, so editing a kernel never breaks
// serving; re-emit to regain the specialized path. The generated path's
// facts are the ones baked into the artifact at emit time.
func KernelAuto(path string, opts ...KernelOption) BuildFunc {
	return buildKernel(path, kernelfile.Options{Generated: true}, opts)
}

func buildKernel(path string, lo kernelfile.Options, opts []KernelOption) BuildFunc {
	ko := buildKernelOpts(opts)
	return func(_ int, team *hbc.Team) (Runnable, error) {
		k, err := kernelfile.Load(path, lo)
		if err != nil {
			return nil, err
		}
		cfg := hbc.Config{Facts: k.Facts}
		if c, ok := ko.tuned.Get(k.Kernel.Name); ok {
			if cfg, err = c.Apply(cfg); err != nil {
				return nil, fmt.Errorf("serve: tuned policy for %q: %w", k.Kernel.Name, err)
			}
		}
		prog, err := hbc.Compile(k.Nest, cfg)
		if err != nil {
			return nil, err
		}
		return &kernelRunnable{r: team.Load(prog, k.Env), env: k.Env, facts: k.Facts,
			sched: prog.Schedule(), generated: k.Generated}, nil
	}
}
