package core

// Leftover task generation — the paper's §3.3, Algorithms 1 and 2.
//
// When a heartbeat received in loop Li promotes an ancestor loop Lj, the
// promotion produces three tasks: two loop-slice tasks over the halves of
// Lj's remaining iterations, and one *leftover task* that completes the
// suspended middle — the rest of Li's current invocation, then, walking up
// the ancestor chain, the tail work of each intermediate loop's in-flight
// iteration followed by that loop's own remaining iterations, ending with
// the tail work of Lj's in-flight iteration.
//
// Algorithm 1 in the paper enumerates (leaf, ancestor) pairs; we generate a
// task for every (loop, proper ancestor) pair because promotion-ready
// points sit at the latch of *every* DOALL loop (§3.2), so interior loops
// receive heartbeats too. For a nest of d loops in a chain this is the
// d(d-1)/2 quadratic family the paper says is impractical to write by hand;
// like HBC we keep code size under control by sharing one parameterized
// body across all pairs — each table entry binds only (Li, Lj).

// leftoverTask is a compiled leftover for the pair (li receives heartbeat,
// lj gets split). Its code is Algorithm 2, specialized by binding.
type leftoverTask struct {
	li, lj *cloop
}

// generateLeftovers populates the leftover task table. This is Algorithm 1
// extended from leaves to all loops, plus the §3.4 linking step: the table
// is indexed by (li.ord, lj.level), a perfect hash for the pair domain
// since a loop has at most one ancestor per level.
func (p *Program) generateLeftovers() {
	p.leftovers = make([][]*leftoverTask, len(p.loops))
	for _, li := range p.loops {
		p.leftovers[li.ord] = make([]*leftoverTask, p.depth)
		for lj := li.parent; lj != nil; lj = lj.parent {
			p.leftovers[li.ord][lj.id.Level] = &leftoverTask{li: li, lj: lj}
		}
	}
}

// leftoverFor performs the leftover-task-table lookup of the promotion
// handler (§3.4).
func (p *Program) leftoverFor(li, lj *cloop) *leftoverTask {
	t := p.leftovers[li.ord][lj.id.Level]
	if t == nil {
		panic("core: missing leftover task for " + li.id.String() + "→" + lj.id.String())
	}
	return t
}

// run executes the leftover task on the given task state, whose chain must
// be a promotion snapshot: chain[li.level].iv is the next unstarted
// iteration of li's in-flight invocation, intermediate ancestors' iv are
// their in-flight iterations with their remaining ranges intact, and lj and
// everything above it shows no remaining iterations.
//
// This is Algorithm 2 — the walk the driver also finishes a stopped
// iteration with — from li up to lj's tail work. Any step may itself be
// promoted by a later heartbeat (the leftover's own latent parallelism —
// the intermediate ancestors' remaining iterations — is visible to the
// outer-loop-first scan), but never at or above lj, which is frozen.
func (lt *leftoverTask) run(ts *taskRun) {
	if ts.walk(lt.li, lt.lj, noPromo) != noPromo {
		panic("core: leftover promoted at or above the split loop")
	}
}
