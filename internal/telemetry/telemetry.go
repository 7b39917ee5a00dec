// Package telemetry is the runtime's unified observability layer: a
// lock-light per-worker ring-buffer tracer for scheduling events and a
// metrics registry that snapshots the runtime's counters into standard
// exposition formats.
//
// The paper's entire evaluation (Figs. 6-11) is about observing the
// heartbeat runtime — promotion counts, polling overhead, chunk-size
// adaptation over time — and a loop-scheduling runtime becomes a usable
// production component only once those scheduling decisions are exportable
// as time-series. This package is that layer:
//
//   - Tracer records promotions, steals, parks/wakes, heartbeat deliveries
//     and Adaptive Chunking retunes into one bounded ring buffer per
//     worker. Each lane is written only by its owning worker
//     under a per-lane mutex that is uncontended except while a snapshot is
//     being taken, so recording an event costs a lock/unlock pair on a warm,
//     core-local line — cheap enough to leave on during measurement runs. A
//     full ring overwrites its oldest events and counts them as dropped, so
//     a truncated trace is always distinguishable from a complete one.
//
//   - Snapshot freezes the lanes and exports them as Chrome trace_event
//     JSON (one lane per worker, loadable in Perfetto or chrome://tracing)
//     or as a compact text timeline.
//
//   - Registry collects named metric groups — scheduler counters, pulse
//     delivery statistics, per-run promotion counts, live AC chunk sizes —
//     and serves them in Prometheus text exposition format and as expvar
//     JSON, from an opt-in HTTP endpoint.
//
// A nil *Tracer is a valid, disabled tracer: every method is a no-op, so
// call sites in the scheduler and runtime gate tracing on a single pointer
// test and the telemetry-off fast path stays allocation-free (enforced by
// the sched package's TestSpawnJoinAllocFree, traced and untraced).
package telemetry

import (
	"sync"
	"time"
)

// Kind enumerates the traced event taxonomy.
type Kind uint8

const (
	// KindPromotion is one heartbeat promotion: A/B are the packed LoopIDs
	// of the loop that received the heartbeat (Li) and the loop that was
	// split (Lj); C, D, E are the split bounds lo, mid, hi. A leftover task
	// was forked iff A != B (an ancestor was split).
	KindPromotion Kind = iota
	// KindSteal is a successful steal by this worker: A is the victim
	// worker, B the nanoseconds the steal spent searching.
	KindSteal
	// KindPark marks this worker giving up spinning and blocking.
	KindPark
	// KindUnpark marks the end of a park: A is the reason (see Unpark*).
	KindUnpark
	// KindBeat is a heartbeat detection at a poll site: A is the number of
	// beats observed (k>1 means k-1 were missed), B the ordinal of the leaf
	// whose budget ran out (an interior latch spends its last leaf's).
	KindBeat
	// KindRetune is an Adaptive Chunking rescale: A is the leaf ordinal, B
	// the new chunk size, C the previous chunk size, D the window's minimum
	// observed poll count that drove the rescale, E the root loop's index
	// in flight (the row, for a CSR nest) — enough to rebuild the paper's
	// Fig. 12 chunk-vs-row trace from the tracer alone.
	KindRetune

	numKinds = int(KindRetune) + 1
)

// Unpark reasons (Event.A of KindUnpark).
const (
	UnparkWake  = 0 // an explicit wake signal from a spawner
	UnparkInbox = 1 // an external submission arrived
	UnparkTimer = 2 // the fallback timer fired
)

var kindNames = [numKinds]string{
	"promotion", "steal", "park", "unpark", "beat", "retune",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Kinds returns every event kind in declaration order, for enumeration by
// summaries and tests.
func Kinds() []Kind {
	ks := make([]Kind, numKinds)
	for i := range ks {
		ks[i] = Kind(i)
	}
	return ks
}

// Event is one traced occurrence. The A..E payload fields are
// kind-specific; see the Kind constants for their meaning.
type Event struct {
	// When is the time since the Tracer was created.
	When time.Duration
	// Kind identifies the event type.
	Kind Kind
	// Worker is the lane (worker ID) the event was recorded on.
	Worker int32
	// A..E are the kind-specific payload values.
	A, B, C, D, E int64
}

// PackLoopID encodes a (level, index) loop ID into one payload field.
func PackLoopID(level, index int) int64 {
	return int64(level)<<32 | int64(uint32(index))
}

// UnpackLoopID decodes a payload field written by PackLoopID.
func UnpackLoopID(v int64) (level, index int) {
	return int(v >> 32), int(uint32(v))
}

// DefaultEventsPerWorker is the default ring capacity of each worker lane.
// At 64 bytes per event this is 256 KiB per worker — roomy enough for the
// full promotion history of a multi-second run at the paper's 100µs
// heartbeat, bounded enough to leave on in production.
const DefaultEventsPerWorker = 1 << 12

// lane is one worker's ring buffer. Only the owning worker writes it; the
// mutex is uncontended except while Snapshot copies the lane out. Leading
// and trailing pads keep the hot head fields of adjacent lanes (the slice
// is contiguous) off each other's cache lines.
//
//hbc:padded
type lane struct {
	_   [64]byte
	mu  sync.Mutex
	buf []Event
	// head is the next write index; n the live event count (n == len(buf)
	// once the ring has wrapped).
	head, n int
	// total counts events ever emitted on the lane; dropped counts events
	// overwritten after the ring wrapped. total - dropped == n.
	total, dropped uint64
	_              [40]byte
}

// Tracer records scheduling events into per-worker ring buffers. Create
// one with NewTracer; a nil *Tracer is a disabled tracer whose methods are
// all no-ops.
type Tracer struct {
	start time.Time
	lanes []lane
	// now returns the time since start; replaceable by tests that need
	// deterministic timestamps.
	now func() time.Duration
}

// NewTracer creates a tracer with one lane per worker, each holding up to
// perWorker events (<= 0 selects DefaultEventsPerWorker).
func NewTracer(workers, perWorker int) *Tracer {
	if workers < 1 {
		workers = 1
	}
	if perWorker <= 0 {
		perWorker = DefaultEventsPerWorker
	}
	t := &Tracer{start: time.Now(), lanes: make([]lane, workers)}
	t.now = func() time.Duration { return time.Since(t.start) }
	for i := range t.lanes {
		t.lanes[i].buf = make([]Event, perWorker)
	}
	return t
}

// Workers returns the number of lanes, or 0 for a nil tracer.
func (t *Tracer) Workers() int {
	if t == nil {
		return 0
	}
	return len(t.lanes)
}

// Emit records one event on worker w's lane. A nil tracer, or a worker
// outside the lane range (an external goroutine), drops the event. Emit
// never allocates: the ring is preallocated and a full lane overwrites its
// oldest event, counting the loss.
func (t *Tracer) Emit(w int, k Kind, a, b, c, d, e int64) {
	if t == nil || w < 0 || w >= len(t.lanes) {
		return
	}
	when := t.now()
	l := &t.lanes[w]
	l.mu.Lock()
	l.buf[l.head] = Event{When: when, Kind: k, Worker: int32(w), A: a, B: b, C: c, D: d, E: e}
	l.head++
	if l.head == len(l.buf) {
		l.head = 0
	}
	if l.n < len(l.buf) {
		l.n++
	} else {
		l.dropped++
	}
	l.total++
	l.mu.Unlock()
}

// Totals returns the number of events ever emitted and the number
// overwritten by ring wraps, summed across lanes, without copying events —
// the cheap counters the metrics registry snapshots.
func (t *Tracer) Totals() (total, dropped uint64) {
	if t == nil {
		return 0, 0
	}
	for i := range t.lanes {
		l := &t.lanes[i]
		l.mu.Lock()
		total += l.total
		dropped += l.dropped
		l.mu.Unlock()
	}
	return total, dropped
}

// LaneSnapshot is the frozen contents of one worker's ring.
type LaneSnapshot struct {
	// Worker is the lane's worker ID.
	Worker int
	// Events holds the retained events, oldest first.
	Events []Event
	// Total counts events ever emitted on the lane.
	Total uint64
	// Dropped counts events overwritten after the ring filled. Events holds
	// the newest Total - Dropped events.
	Dropped uint64
}

// Snapshot is a point-in-time copy of every lane.
type Snapshot struct {
	// Taken is the tracer-relative time the snapshot was taken.
	Taken time.Duration
	// Lanes holds one entry per worker, in worker order.
	Lanes []LaneSnapshot
}

// Snapshot copies every lane out under its lock. Safe to call while
// workers are emitting; events recorded after a lane is copied are not
// included. Returns an empty snapshot for a nil tracer.
func (t *Tracer) Snapshot() Snapshot {
	if t == nil {
		return Snapshot{}
	}
	s := Snapshot{Taken: t.now(), Lanes: make([]LaneSnapshot, len(t.lanes))}
	for i := range t.lanes {
		l := &t.lanes[i]
		l.mu.Lock()
		ev := make([]Event, l.n)
		if l.n == len(l.buf) {
			// Wrapped: oldest event sits at head.
			n := copy(ev, l.buf[l.head:])
			copy(ev[n:], l.buf[:l.head])
		} else {
			copy(ev, l.buf[:l.n])
		}
		s.Lanes[i] = LaneSnapshot{Worker: i, Events: ev, Total: l.total, Dropped: l.dropped}
		l.mu.Unlock()
	}
	return s
}

// Truncated reports whether any lane overwrote events (the ring wrapped),
// so a consumer can tell a partial trace from a complete one.
func (s Snapshot) Truncated() bool { return s.Dropped() > 0 }

// Dropped returns the total number of overwritten events across lanes.
func (s Snapshot) Dropped() uint64 {
	var n uint64
	for _, l := range s.Lanes {
		n += l.Dropped
	}
	return n
}

// Total returns the total number of events ever emitted across lanes.
func (s Snapshot) Total() uint64 {
	var n uint64
	for _, l := range s.Lanes {
		n += l.Total
	}
	return n
}

// CountByKind tallies the retained events of every lane by kind.
func (s Snapshot) CountByKind() map[Kind]int {
	m := make(map[Kind]int, numKinds)
	for _, l := range s.Lanes {
		for _, e := range l.Events {
			m[e.Kind]++
		}
	}
	return m
}

// Telemetry bundles the tracer and the metrics registry that together form
// the runtime's telemetry surface (see hbc.WithTelemetry).
type Telemetry struct {
	Tracer   *Tracer
	Registry *Registry
}

// New creates a Telemetry with a tracer of the given shape and an empty
// registry. perWorker <= 0 selects DefaultEventsPerWorker.
func New(workers, perWorker int) *Telemetry {
	return &Telemetry{Tracer: NewTracer(workers, perWorker), Registry: NewRegistry()}
}
