package core

import (
	"fmt"
	"runtime/debug"
	"sync/atomic"

	"hbc/internal/loopnest"
)

// Failure semantics of the heartbeat runtime.
//
// The paper's promotion handler preserves fork-join semantics on the happy
// path; this file defines what happens off it. Three mechanisms cooperate:
//
//   - runCtl is a per-invocation control block shared by every task of one
//     Run: a cancel flag plus the first abort cause. The flag is checked at
//     every chunk draw — with the poll at a leaf chunk boundary or an
//     interior latch, before a draw at a chunk start — and at promotion
//     entry, so a cancelled run winds down within one chunk per task, and
//     promotions stop creating new work.
//
//   - Panic containment: every task entry point runs under guarded, which
//     converts a recovered panic into a *PanicError carrying the faulting
//     loop's (level, index) ID, the induction-variable snapshot from the LST
//     context chain, and the worker stack. The typed value re-panics into the
//     scheduler's latch (first panic wins) and simultaneously cancels the
//     run, so sibling slice tasks and leftover tasks abort at their next
//     safepoint instead of running to completion; every join drains.
//
//   - Exec.RunCtx recovers the typed value at the root and returns it as an
//     error, together with context cancellation and deadline support.

// PanicError is the typed error produced when a loop body, hook, or bounds
// function panics during a heartbeat-scheduled run. It identifies the
// faulting loop and iteration so an irregular-workload failure can be
// reproduced, and carries the original panic value and worker stack.
type PanicError struct {
	// Value is the original value passed to panic.
	Value any
	// Loop is the (level, index) ID of the innermost loop in progress on the
	// panicking task.
	Loop LoopID
	// LoopName is that loop's Name, when set.
	LoopName string
	// Indices is a snapshot of the induction variables from the LST context
	// chain, outermost first, up to and including the faulting loop's. For a
	// leaf the last entry is an iteration of the chunk being executed: the
	// faulting one when the slice reported a loopnest.Fault, the chunk's
	// first under a slice built at Compile. A panic in the loop's Bounds
	// stops at the enclosing loop's index: the invocation being set up has
	// none yet.
	Indices []int64
	// Worker is the ID of the worker the panic occurred on, or -1 when the
	// panic did not occur on a task (e.g. a bounds call on the submitting
	// goroutine).
	Worker int
	// Stack is the panicking goroutine's stack, captured at recovery.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	name := e.LoopName
	if name == "" {
		name = "?"
	}
	return fmt.Sprintf("core: panic in loop %v %q at %v on worker %d: %v",
		e.Loop, name, e.Indices, e.Worker, e.Value)
}

// Unwrap exposes the original panic value when it was an error.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// runCtl is the shared control block of one Run invocation.
type runCtl struct {
	cancel atomic.Bool
	cause  atomic.Pointer[runCause]
}

type runCause struct{ err error }

// abort requests cooperative cancellation, recording err as the cause if it
// is the first. Safe to call from any goroutine, any number of times.
func (c *runCtl) abort(err error) {
	c.cause.CompareAndSwap(nil, &runCause{err: err})
	c.cancel.Store(true)
}

// canceled reports whether the run has been aborted. Checked at safepoints.
func (c *runCtl) canceled() bool { return c.cancel.Load() }

// err returns the recorded abort cause, or nil.
func (c *runCtl) err() error {
	if b := c.cause.Load(); b != nil {
		return b.err
	}
	return nil
}

// guarded runs fn with panic containment: a panic is converted to a
// *PanicError (if not one already — a join re-raising a child's typed panic
// passes through unchanged), the run is cancelled so siblings abort at their
// next safepoint, and the typed value is re-panicked for the scheduler's
// latch to carry to the join. Every task entry point of the executor runs
// under this guard.
func (ts *taskRun) guarded(fn func()) {
	defer func() {
		if v := recover(); v != nil {
			pe := ts.containPanic(v)
			if ts.ctl != nil {
				ts.ctl.abort(pe)
			}
			panic(pe)
		}
	}()
	fn()
}

// containPanic wraps a recovered panic value in a *PanicError, snapshotting
// the faulting loop and induction variables from the task's LST chain.
func (ts *taskRun) containPanic(v any) *PanicError {
	if pe, ok := v.(*PanicError); ok {
		return pe
	}
	pe := &PanicError{Value: v, Worker: ts.w.ID(), Stack: debug.Stack()}
	if f, ok := v.(*loopnest.Fault); ok {
		// The slice ts.cur entered ran the faulting loop's code inline.
		pe.Value = f.Value
		if l := ts.cur; l != nil {
			l = l.spendPath(f.Level)
			pe.Loop, pe.LoopName, pe.Indices = l.id, l.spec.Name, f.Indices
		}
		return pe
	}
	if l := ts.cur; l != nil {
		pe.Loop = l.id
		pe.LoopName = l.spec.Name
		n := l.id.Level + 1
		if ts.inBounds {
			n--
		}
		pe.Indices = append([]int64(nil), ts.idx[:n]...)
	}
	return pe
}
