package workloads

// Differential correctness for chunking: every registered workload must
// compute the oracle's answer under Adaptive Chunking, a fixed chunk of 4
// and a poll at every iteration. Chunking only changes how leaf iterations
// are diced into chunks, never which iterations run, so any divergence here
// is a chunking bug (a dropped or double-dealt range), not a workload bug.

import (
	"testing"
	"time"

	"hbc/internal/core"
	"hbc/internal/pulse"
	"hbc/internal/sched"
)

func TestSchedulePoliciesMatchOracle(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			w, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			w.Prepare(testScale)
			for _, size := range []int64{0, 4, 1} {
				team := sched.NewTeam(3)
				drv := NewDriver(team, pulse.NewEveryN(16), 50*time.Microsecond, core.Options{StaticChunk: size})
				if err := w.BindHBC(drv); err != nil {
					t.Fatal(err)
				}
				w.RunHBC(drv)
				drv.Close()
				team.Close()
				if err := w.Verify(); err != nil {
					t.Fatalf("StaticChunk %d: %v", size, err)
				}
			}
		})
	}
}
