package core

import (
	"runtime"
	"testing"

	"dpml/internal/faults"
	"dpml/internal/mpi"
	"dpml/internal/topology"
)

// TestDPMLAllreduceAllocBound pins the host data path of a real-data DPML
// allreduce: 8x8 ranks on cluster A, 1 MB of int64 each, three leaders,
// one kernel shard. Phase 1 deposits views of the ranks' own buffers and
// intra-node messages copy straight into posted receives, so World.Run
// allocates about 17 MB, mostly leader accumulators and receive scratch;
// snapshotting every deposit and message as well allocates about 81 MB.
// The straggling-leader case slows the leader of the last partition on
// node 0 twentyfold, so that node's other ranks copy the first
// partitions out of shared memory — writing their buffers — while that
// leader still reads its partition from the same buffers; the result
// must still be the exact sum.
func TestDPMLAllreduceAllocBound(t *testing.T) {
	const (
		nodes, ppn = 8, 8
		elems      = 1 << 17 // 1 MB of int64
		maxAlloc   = 24 << 20
	)
	for _, tc := range []struct {
		name string
		plan *faults.Plan
	}{
		{"healthy", nil},
		{"straggling-leader", &faults.Plan{Stragglers: []faults.Straggler{{Rank: 2, Factor: 20}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			job, err := topology.NewJob(topology.ClusterA(), nodes, ppn)
			if err != nil {
				t.Fatal(err)
			}
			w := mpi.NewWorld(job, mpi.Config{Shards: 1, Faults: tc.plan})
			e := NewEngine(w)
			p := job.NumProcs()
			// Rank r's element i is (r+1)·(i%7+1) + i, so every output
			// element must be p(p+1)/2·(i%7+1) + p·i.
			vecs := make([]*mpi.Vector, p)
			for r := range vecs {
				vecs[r] = mpi.NewVector(mpi.Int64, elems)
				xs := vecs[r].Int64s()
				for i := range xs {
					xs[i] = int64(r+1)*int64(i%7+1) + int64(i)
				}
			}
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			alloc0 := ms.TotalAlloc
			err = w.Run(func(r *mpi.Rank) error {
				return e.Allreduce(r, DPML(3), mpi.Sum, vecs[r.Rank()])
			})
			runtime.ReadMemStats(&ms)
			alloc := ms.TotalAlloc - alloc0
			if err != nil {
				t.Fatal(err)
			}
			tri := int64(p * (p + 1) / 2)
			for r, v := range vecs {
				for i, x := range v.Int64s() {
					if want := tri*int64(i%7+1) + int64(p)*int64(i); x != want {
						t.Fatalf("rank %d element %d = %d, want %d", r, i, x, want)
					}
				}
			}
			t.Logf("World.Run allocated %.1f MB", float64(alloc)/(1<<20))
			if alloc > maxAlloc {
				t.Fatalf("World.Run allocated %.1f MB, want <= %d MB", float64(alloc)/(1<<20), maxAlloc>>20)
			}
		})
	}
}

// TestDPMLPhantomMallocBound bounds the heap objects one phantom DPML
// allreduce allocates: 16x16 ranks on cluster D, DPML-4, 64 KB of
// float32 each, one kernel shard. Phantom vectors carry no data, so what
// is left is proc set-up and per-message bookkeeping. Flows are recycled,
// a shared-memory copy parks on the proc's own wakeup and park reasons
// are formatted only for a report, so World.Run makes about 16k objects.
// A flow object and completion closure per flow, a signal and closure
// per copy and a formatted reason per wait made about 31k.
func TestDPMLPhantomMallocBound(t *testing.T) {
	const (
		nodes, ppn = 16, 16
		maxMallocs = 20_000
	)
	job, err := topology.NewJob(topology.ClusterD(), nodes, ppn)
	if err != nil {
		t.Fatal(err)
	}
	w := mpi.NewWorld(job, mpi.Config{Shards: 1})
	e := NewEngine(w)
	vecs := make([]*mpi.Vector, job.NumProcs())
	for r := range vecs {
		vecs[r] = mpi.NewPhantom(mpi.Float32, 16<<10)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs
	err = w.Run(func(r *mpi.Rank) error {
		return e.Allreduce(r, DPML(4), mpi.Sum, vecs[r.Rank()])
	})
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs - mallocs0
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("World.Run made %d heap objects", mallocs)
	if mallocs > maxMallocs {
		t.Fatalf("World.Run made %d heap objects, want <= %d", mallocs, maxMallocs)
	}
}
