package shmseg

import (
	"testing"

	"dpml/internal/mpi"
	"dpml/internal/sim"
	"dpml/internal/topology"
)

// stuckWorld runs four ranks on two nodes that can never finish: rank 0
// waits on a receive nobody sends, rank 1 waits for a shared-memory
// gather nobody fills, and rank 2 waits for a result nobody publishes.
// With tick set, rank 3 keeps virtual time moving (so only a watchdog
// can end the run); otherwise it returns at once and the run deadlocks.
func stuckWorld(t *testing.T, cfg mpi.Config, tick bool) error {
	t.Helper()
	job, err := topology.NewJob(topology.ClusterB(), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	w := mpi.NewWorld(job, cfg)
	regions := []*Region{NewRegion(2), NewRegion(2)}
	return w.Run(func(r *mpi.Rank) error {
		rg := regions[r.Place().Node]
		switch r.Rank() {
		case 0:
			r.Recv(w.CommWorld(), 3, 9, mpi.NewVector(mpi.Float64, 4))
		case 1:
			rg.GatherWait(r.Proc(), 5, 2, 1, 2)
		case 2:
			rg.ResultWait(r.Proc(), 6, 2, 0)
		default:
			for tick {
				r.Proc().Sleep(sim.Microsecond)
			}
		}
		return nil
	})
}

// TestDeadlockReportPinned pins a deadlock report byte for byte. Park
// reasons are recorded without formatting and rendered only when a
// report prints, so the rendered text must not depend on that.
func TestDeadlockReportPinned(t *testing.T) {
	err := stuckWorld(t, mpi.Config{}, false)
	const want = "sim: deadlock at t=0.000us; blocked procs:\n" +
		"  rank0: wait recv {comm:0 src:3 tag:9}\n" +
		"  rank1: shm gather op=5 leader=1\n" +
		"  rank2: shm result op=6 leader=0\n" +
		"pending requests:\n" +
		"  rank0: 1 posted recvs, 0 unexpected msgs"
	if err == nil || err.Error() != want {
		t.Fatalf("deadlock report:\n%v\nwant:\n%s", err, want)
	}
}

// TestWatchdogReportPinned pins a watchdog report byte for byte.
func TestWatchdogReportPinned(t *testing.T) {
	err := stuckWorld(t, mpi.Config{Watchdog: 10 * sim.Microsecond}, true)
	const want = "sim: watchdog expired at t=10.000us; blocked procs:\n" +
		"  rank0: wait recv {comm:0 src:3 tag:9}\n" +
		"  rank1: shm gather op=5 leader=1\n" +
		"  rank2: shm result op=6 leader=0\n" +
		"  rank3: sleep\n" +
		"next pending event: t=10.000us\n" +
		"pending requests:\n" +
		"  rank0: 1 posted recvs, 0 unexpected msgs"
	if err == nil || err.Error() != want {
		t.Fatalf("watchdog report:\n%v\nwant:\n%s", err, want)
	}
}
