package hbc

import "hbc/internal/core"

// CompiledOptions exposes the core options a Program was compiled with,
// after the core's defaults, to the external tests.
func CompiledOptions(p *Program) core.Options { return p.p.Options() }
