package bench

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"

	"dpml/internal/core"
	"dpml/internal/mpi"
	"dpml/internal/sim"
	"dpml/internal/sweep"
	"dpml/internal/topology"
)

// TestCrossDesignDeterminism is the dynamic counterpart of the walltime
// and globalrand analyzers: a mid-scale scenario (cluster A, 16 nodes x
// 28 ppn) must produce byte-identical latencies for every design no
// matter how much host parallelism the run gets — different GOMAXPROCS,
// different sweep -j worker counts, repeated runs.
func TestCrossDesignDeterminism(t *testing.T) {
	designs := []struct {
		name string
		spec core.Spec
	}{
		{"flat-rd", core.Flat(mpi.AlgRecursiveDoubling)},
		{"host-based", core.HostBased()},
		{"dpml-4", core.DPML(4)},
		{"dpml-pipelined", core.DPMLPipelined(4, 4)},
		{"sharp-node", core.Spec{Design: core.DesignSharpNode}},
		{"sharp-socket", core.Spec{Design: core.DesignSharpSocket}},
		{"dualroot-s4", core.DualRoot(4)},
		{"genall-g4", core.GenAll(4)},
		{"pap-sorted", core.PAPSorted()},
		{"pap-ring", core.PAPRing()},
	}
	sizes := []int{8, 4 << 10, 256 << 10}

	digestRun := func(gomaxprocs, workers int) []string {
		old := runtime.GOMAXPROCS(gomaxprocs)
		defer runtime.GOMAXPROCS(old)
		jobs := make([]sweep.Job[[]sim.Duration], len(designs))
		for i := range designs {
			spec := designs[i].spec
			jobs[i] = func() ([]sim.Duration, error) {
				return AllreduceLatency(topology.ClusterA(), 16, 28, FixedSpec(spec), sizes, 2, 1)
			}
		}
		results, err := sweep.Run(workers, jobs)
		if err != nil {
			t.Fatal(err)
		}
		digests := make([]string, len(results))
		for i, lats := range results {
			h := sha256.New()
			for _, d := range lats {
				var b [8]byte
				binary.LittleEndian.PutUint64(b[:], uint64(d))
				h.Write(b[:])
			}
			digests[i] = fmt.Sprintf("%x", h.Sum(nil))
		}
		return digests
	}

	configs := []struct{ gomaxprocs, workers int }{
		{1, 1},
		{2, 3},
		{4, 8},
	}
	base := digestRun(configs[0].gomaxprocs, configs[0].workers)
	for _, cfg := range configs[1:] {
		got := digestRun(cfg.gomaxprocs, cfg.workers)
		for i, d := range designs {
			if got[i] != base[i] {
				t.Errorf("%s: digest under GOMAXPROCS=%d -j%d differs from GOMAXPROCS=%d -j%d: %s vs %s",
					d.name, cfg.gomaxprocs, cfg.workers, configs[0].gomaxprocs, configs[0].workers, got[i], base[i])
			}
		}
	}
}

// TestShardDeterminismMatrix is the sharded-kernel analogue: the same
// scenario must digest identically for every combination of kernel shard
// count, GOMAXPROCS, and sweep -j worker count. Shards partition the
// event heap itself (intra-run parallelism), -j replicates whole worlds
// (inter-run parallelism) — the two must compose without either leaking
// host scheduling into virtual time. Jitter and the rendezvous path are
// both enabled so the per-rank noise streams and the cross-shard
// RTS/CTS/payload handoff are exercised, not just eager traffic.
func TestShardDeterminismMatrix(t *testing.T) {
	designs := []struct {
		name string
		spec core.Spec
	}{
		{"flat-rd", core.Flat(mpi.AlgRecursiveDoubling)},
		{"dpml-4", core.DPML(4)},
		{"sharp-node", core.Spec{Design: core.DesignSharpNode}},
		{"dualroot-s4", core.DualRoot(4)},
		{"genall-g4", core.GenAll(4)},
		{"pap-sorted", core.PAPSorted()},
		{"pap-ring", core.PAPRing()},
	}
	sizes := []int{8, 4 << 10, 1 << 20} // 1 MB forces rendezvous transfers

	digestRun := func(shards, gomaxprocs, workers int) []string {
		old := runtime.GOMAXPROCS(gomaxprocs)
		defer runtime.GOMAXPROCS(old)
		cfg := mpi.Config{
			Shards:     shards,
			Jitter:     200, // ns of per-message noise, exercising the rank streams
			JitterSeed: 42,
		}
		jobs := make([]sweep.Job[[]sim.Duration], len(designs))
		for i := range designs {
			spec := designs[i].spec
			jobs[i] = func() ([]sim.Duration, error) {
				// Cluster A: the SHArP-capable fabric, so the sharp-node
				// design (whose completion wakeups cross shards) runs too.
				return AllreduceLatencyCfg(cfg, topology.ClusterA(), 8, 8, FixedSpec(spec), sizes, 2, 1)
			}
		}
		results, err := sweep.Run(workers, jobs)
		if err != nil {
			t.Fatal(err)
		}
		digests := make([]string, len(results))
		for i, lats := range results {
			h := sha256.New()
			for _, d := range lats {
				var b [8]byte
				binary.LittleEndian.PutUint64(b[:], uint64(d))
				h.Write(b[:])
			}
			digests[i] = fmt.Sprintf("%x", h.Sum(nil))
		}
		return digests
	}

	configs := []struct{ shards, gomaxprocs, workers int }{
		{1, 1, 1}, // serial kernel, serial host: the reference
		{2, 1, 2},
		{2, 4, 1},
		{4, 2, 2},
		{1, 2, 1}, // serial kernel on a multi-threaded host
		{8, 4, 3}, // more shards than nodes/2: clamping path
	}
	base := digestRun(configs[0].shards, configs[0].gomaxprocs, configs[0].workers)
	for _, cfg := range configs[1:] {
		got := digestRun(cfg.shards, cfg.gomaxprocs, cfg.workers)
		for i, d := range designs {
			if got[i] != base[i] {
				t.Errorf("%s: digest at shards=%d GOMAXPROCS=%d -j%d differs from serial reference: %s vs %s",
					d.name, cfg.shards, cfg.gomaxprocs, cfg.workers, got[i], base[i])
			}
		}
	}
}
