package core

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// LB4OMP-style online schedule selection (ChunkAuto).
//
// LB4OMP's expert selection measures a few timesteps under each candidate
// schedule and then switches to the best performer. Here the unit of
// measurement is one whole-nest invocation (Exec.Run): heartbeat programs
// are compiled once and invoked repeatedly (the Fig. 11 scenario), so the
// selector profiles the first K invocations under each candidate policy,
// then locks the winner by median invocation time for the rest of the
// Exec's life. Selection is per Exec — and therefore per kernel — rather
// than per loop; a nest's leaves share one policy, matching how the rest
// of the runtime (options, tuning files) is keyed.
//
// Delegation is a single atomic index load on the hot path; only completed,
// uncancelled runs are counted (a failed or aborted run's time says nothing
// about the schedule).

// runObserver is implemented by policies that want per-invocation timing.
// Exec.RunCtx feeds it the wall time of each successful run.
type runObserver interface {
	EndRun(d time.Duration)
}

// SelectorState is a snapshot of the online selector's progress, for
// tuning tools and smoke tests.
type SelectorState struct {
	// Locked reports whether profiling has finished and a winner is in
	// force.
	Locked bool
	// Winner is the locked policy's name; empty until Locked.
	Winner string
	// Active is the name of the candidate currently delegated to.
	Active string
	// Profiled is the number of completed profiling invocations so far.
	Profiled int
	// Candidates lists the candidate policy names in profiling order.
	Candidates []string
	// Medians maps each profiled candidate to its median invocation time
	// (only candidates with at least one sample appear).
	Medians map[string]time.Duration
}

// selectorPolicy profiles each candidate policy for `per` invocations in
// turn, then locks the candidate with the lowest median invocation time.
type selectorPolicy struct {
	cands []SchedPolicy
	names []string
	per   int
	// cur indexes the candidate currently delegated to. Written only under
	// mu (between runs); read lock-free on the hot path.
	cur atomic.Int32
	// locked flips once, when the winner is chosen.
	locked atomic.Bool

	mu      sync.Mutex
	runs    int // completed runs for the current candidate
	samples [][]time.Duration
	winner  int
}

func newSelectorPolicy(info PolicyInfo) *selectorPolicy {
	o := info.Opts
	s := &selectorPolicy{per: o.Chunk.ProfileRuns, winner: -1}
	for _, k := range o.Chunk.Candidates {
		co := o
		co.Chunk.Kind = k
		co.Chunk.Candidates = nil
		sub := newKindPolicy(k, PolicyInfo{Workers: info.Workers, Leaves: info.Leaves, Opts: co})
		s.cands = append(s.cands, sub)
		s.names = append(s.names, sub.Name())
	}
	s.samples = make([][]time.Duration, len(s.cands))
	return s
}

func (s *selectorPolicy) Name() string { return "auto" }

func (s *selectorPolicy) active() SchedPolicy { return s.cands[s.cur.Load()] }

func (s *selectorPolicy) NextChunk(w, ord int, remaining int64) int64 {
	return s.active().NextChunk(w, ord, remaining)
}

func (s *selectorPolicy) OnWindow(w, ord int, m int64) (prev, next int64, retuned bool) {
	return s.active().OnWindow(w, ord, m)
}

func (s *selectorPolicy) Chunk(w, ord int) int64 { return s.active().Chunk(w, ord) }

// EndRun records one successful invocation's wall time and advances the
// profiling state machine: per runs per candidate, in order, then lock the
// argmin-median winner. Called between runs (Exec supports one run at a
// time), so the mutex is uncontended.
func (s *selectorPolicy) EndRun(d time.Duration) {
	if s.locked.Load() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.locked.Load() {
		return
	}
	cur := int(s.cur.Load())
	s.samples[cur] = append(s.samples[cur], d)
	s.runs++
	if s.runs < s.per {
		return
	}
	s.runs = 0
	if cur+1 < len(s.cands) {
		s.cur.Store(int32(cur + 1))
		return
	}
	best, bestMed := 0, medianDur(s.samples[0])
	for i := 1; i < len(s.cands); i++ {
		if med := medianDur(s.samples[i]); med < bestMed {
			best, bestMed = i, med
		}
	}
	s.winner = best
	s.cur.Store(int32(best))
	s.locked.Store(true)
}

// State snapshots the selector for observers.
func (s *selectorPolicy) State() SelectorState {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := SelectorState{
		Locked:     s.locked.Load(),
		Active:     s.names[s.cur.Load()],
		Candidates: append([]string(nil), s.names...),
		Medians:    make(map[string]time.Duration),
	}
	if s.winner >= 0 {
		st.Winner = s.names[s.winner]
	}
	for i, samp := range s.samples {
		st.Profiled += len(samp)
		if len(samp) > 0 {
			st.Medians[s.names[i]] = medianDur(samp)
		}
	}
	return st
}

func medianDur(d []time.Duration) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// PolicyName reports the name of the scheduling policy in force for this
// Exec ("adaptive", "static", "guided", ..., or "auto" for the online
// selector).
func (x *Exec) PolicyName() string { return x.pol.Name() }

// SelectorState reports the online selector's progress; ok is false when
// the Exec's policy is not ChunkAuto.
func (x *Exec) SelectorState() (st SelectorState, ok bool) {
	if s, isSel := x.pol.(*selectorPolicy); isSel {
		return s.State(), true
	}
	return SelectorState{}, false
}
