package bench

import (
	"os"
	"strings"
	"testing"

	"dpml/internal/core"
	"dpml/internal/mpi"
	"dpml/internal/topology"
)

func TestCheckRegressionGomaxprocsMismatch(t *testing.T) {
	mk := func(gomaxprocs int, scenarios ...PerfScenario) *PerfReport {
		return &PerfReport{GoMaxProcs: gomaxprocs, Scenarios: scenarios}
	}
	baseline := mk(1,
		PerfScenario{Name: "serial", Procs: 64, Shards: 1, EventsPerSec: 1000},
		PerfScenario{Name: "sharded", Procs: 64, Shards: 4, EventsPerSec: 1000},
	)

	// Same gomaxprocs: a slow multi-shard scenario still gates.
	run := mk(1,
		PerfScenario{Name: "serial", Procs: 64, Shards: 1, EventsPerSec: 1000},
		PerfScenario{Name: "sharded", Procs: 64, Shards: 4, EventsPerSec: 100},
	)
	if notes, err := CheckRegression(run, baseline, 0.30); err == nil {
		t.Errorf("same-gomaxprocs multi-shard regression not gated (notes: %v)", notes)
	}

	// Different gomaxprocs: multi-shard scenarios (on either side) are
	// annotated instead of gated...
	run = mk(8,
		PerfScenario{Name: "serial", Procs: 64, Shards: 1, EventsPerSec: 1000},
		PerfScenario{Name: "sharded", Procs: 64, Shards: 4, EventsPerSec: 100},
	)
	notes, err := CheckRegression(run, baseline, 0.30)
	if err != nil {
		t.Errorf("cross-gomaxprocs multi-shard slowdown gated: %v", err)
	}
	if len(notes) < 2 { // mismatch note + one per slow multi-shard scenario
		t.Errorf("notes = %v, want the gomaxprocs mismatch and the skipped scenario annotated", notes)
	}
	joined := strings.Join(notes, "\n")
	for _, want := range []string{"gomaxprocs", "sharded"} {
		if !strings.Contains(joined, want) {
			t.Errorf("notes missing %q:\n%s", want, joined)
		}
	}

	// ...but a single-threaded scenario still gates across gomaxprocs:
	// one kernel on one thread is the same measurement on any host config.
	run = mk(8, PerfScenario{Name: "serial", Procs: 64, Shards: 1, EventsPerSec: 100})
	if _, err := CheckRegression(run, baseline, 0.30); err == nil {
		t.Error("cross-gomaxprocs single-thread regression not gated")
	}
}

// TestExaEventCountInvariance pins the acceptance property of the
// 100k+-rank scenario: the simulated event count is identical for every
// shard count. By default it runs the cluster E workload at a reduced
// node count (still spanning multiple leaf subtrees and the
// oversubscribed core); DPML_FULL_RESULTS=1 runs the full 4096x28 =
// 114,688-rank shape the BENCH_sim.json scenario uses.
func TestExaEventCountInvariance(t *testing.T) {
	cl := topology.ClusterE()
	nodes := 64 // 2 leaf subtrees of 32
	if os.Getenv("DPML_FULL_RESULTS") == "1" {
		nodes = cl.Nodes
	}
	cl = cl.WithNodes(nodes)
	run := func(shards int) uint64 {
		job, err := topology.NewJob(cl, nodes, 28)
		if err != nil {
			t.Fatal(err)
		}
		w := mpi.NewWorld(job, mpi.Config{Shards: shards})
		e := core.NewEngine(w)
		err = w.Run(func(r *mpi.Rank) error {
			v := mpi.NewPhantom(mpi.Float32, (64<<10)/4)
			return e.Allreduce(r, core.DPML(14), mpi.Sum, v)
		})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		return w.SimStats().Events
	}
	want := run(1)
	if want == 0 {
		t.Fatal("serial run produced no events")
	}
	for _, shards := range []int{2, 4, 8} {
		if got := run(shards); got != want {
			t.Errorf("shards=%d: %d events, want %d", shards, got, want)
		}
	}
}
