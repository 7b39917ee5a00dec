package workloads

// Differential correctness for the schedule catalog: every registered
// workload must compute the oracle's answer under every scheduling policy.
// Schedules only change how leaf iterations are diced into chunks, never
// which iterations run, so any divergence here is a policy bug (a dropped
// or double-dealt range), not a workload bug.

import (
	"testing"
	"time"

	"hbc/internal/core"
	"hbc/internal/pulse"
	"hbc/internal/sched"
	"hbc/internal/stats"
)

func TestSchedulePoliciesMatchOracle(t *testing.T) {
	policies := []core.ChunkKind{
		core.ChunkStatic, core.ChunkGuided, core.ChunkFactoring,
		core.ChunkTrapezoid, core.ChunkWeighted, core.ChunkAuto,
	}
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			w, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			w.Prepare(testScale)
			for _, kind := range policies {
				team := sched.NewTeam(3)
				drv := NewDriver(team, pulse.NewEveryN(16), 50*time.Microsecond, core.Options{
					Chunk: core.ChunkPolicy{
						Kind:        kind,
						Size:        4, // static schedule's chunk
						ProfileRuns: 1,
						Weights:     []float64{2, 1, 1}, // exercised by weighted only
					},
				})
				if err := w.BindHBC(drv); err != nil {
					t.Fatal(err)
				}
				runs := 1
				if kind == core.ChunkAuto {
					// Enough invocations to profile every candidate and run
					// past the lock, so post-lock delegation is covered too.
					runs = len(core.ScheduleNames())
				}
				for i := 0; i < runs; i++ {
					w.RunHBC(drv)
				}
				if kind == core.ChunkAuto {
					for _, x := range drv.Execs() {
						if st, ok := x.SelectorState(); !ok || !st.Locked {
							t.Fatalf("auto selector not locked after %d runs (profiled %d of %v)",
								runs, st.Profiled, st.Candidates)
						}
					}
				}
				drv.Close()
				team.Close()
				if err := w.Verify(); err != nil {
					t.Fatalf("%v schedule: %v", kind, err)
				}
			}
		})
	}
}

// TestAutoSelectorWithinTwiceAdaptive is the online selector's cost gate:
// on every TPAL benchmark at 4 workers, the median invocation under auto —
// profiling runs included — may take at most twice the median under
// Adaptive Chunking alone, both measured in this process. Each side starts
// from a fresh driver: adaptive's median is over its first two
// invocations, auto's over three more invocations than it has candidates,
// enough to profile each (ProfileRuns 1) and run three past the lock. A
// benchmark over the bound is re-measured, up to five attempts, so one
// slow phase of a shared machine does not fail the gate; a real regression
// fails all five.
func TestAutoSelectorWithinTwiceAdaptive(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing gate; skipped under -short and -race")
	}
	const workers, scale, attempts = 4, 0.05, 5
	median := func(w Workload, kind core.ChunkKind) time.Duration {
		team := sched.NewTeam(workers)
		defer team.Close()
		drv := NewDriver(team, pulse.NewTimer(), 100*time.Microsecond, core.Options{
			Chunk: core.ChunkPolicy{Kind: kind, ProfileRuns: 1},
		})
		defer drv.Close()
		if err := w.BindHBC(drv); err != nil {
			t.Fatal(err)
		}
		runs := 2
		if st, ok := drv.Execs()[0].SelectorState(); ok {
			runs = len(st.Candidates) + 3
		}
		ds := make([]time.Duration, runs)
		for i := range ds {
			t0 := time.Now()
			w.RunHBC(drv)
			ds[i] = time.Since(t0)
		}
		return stats.Median(ds)
	}
	for _, name := range TPALSet() {
		w, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		w.Prepare(scale)
		var ac, auto time.Duration
		for a := 0; a < attempts; a++ {
			ac, auto = median(w, core.ChunkAdaptive), median(w, core.ChunkAuto)
			if auto <= 2*ac {
				break
			}
		}
		t.Logf("%-17s adaptive %v  auto %v  (%.2fx)", name, ac, auto, float64(auto)/float64(ac))
		if auto > 2*ac {
			t.Errorf("%s: auto median %v exceeds twice adaptive %v in %d attempts", name, auto, ac, attempts)
		}
	}
}
