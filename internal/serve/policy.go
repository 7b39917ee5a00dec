package serve

// Tuned-policy loading: the auto-tuner (`hbcc tune -policies -save`)
// persists each kernel's winning scheduling policy to a tunefile;
// WithTunedPolicies hands that file to KernelFile/KernelAuto so the serve
// layer compiles every kernel with its tuned schedule instead of the
// default. Kernels absent from the file keep the default policy, so a
// partial tunefile is always safe to ship.

import "hbc/internal/tunefile"

// KernelOption configures how KernelFile / KernelAuto build a kernel.
type KernelOption func(*kernelOpts)

type kernelOpts struct {
	tuned *tunefile.File
}

func buildKernelOpts(opts []KernelOption) kernelOpts {
	var o kernelOpts
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// WithTunedPolicies applies persisted per-kernel scheduling choices: when
// the kernel being built has an entry in f, its policy and knobs are set
// on the hbc.Config before compilation. A nil file is a no-op.
func WithTunedPolicies(f *tunefile.File) KernelOption {
	return func(o *kernelOpts) { o.tuned = f }
}

// ScheduleProvider is optionally implemented by a Runnable whose compiled
// program has a known scheduling policy. Both kernel backends implement
// it; hand-written Runnables need not.
type ScheduleProvider interface {
	// Schedule returns the policy name (core.ScheduleNames) the kernel's
	// program was compiled with.
	Schedule() string
}

// Schedules reports each registered kernel's scheduling policy, for
// kernels whose Runnable implements ScheduleProvider. Shards compile
// identically, so shard 0 speaks for all (the same convention Memoize
// uses for facts).
func (p *Pool) Schedules() map[string]string {
	out := make(map[string]string)
	for name, r := range p.shards[0].runners {
		if sp, ok := r.(ScheduleProvider); ok {
			out[name] = sp.Schedule()
		}
	}
	return out
}
