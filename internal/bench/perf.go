package bench

// perf.go is the simulator-throughput suite behind `dpml-bench -perf`:
// it measures how fast the simulator itself runs, as distinct from what
// it predicts. Kernel scenarios report simulated events per wall-clock
// second for representative workloads; the figure section reports the
// wall time of regenerating each figure. The JSON output (committed as
// BENCH_sim.json) makes simulator performance diffable across commits.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"dpml/internal/core"
	"dpml/internal/mpi"
	"dpml/internal/topology"
)

// PerfScenario is one kernel-throughput measurement: a fixed simulated
// workload with its event count and host wall time.
type PerfScenario struct {
	Name  string `json:"name"`
	Procs int    `json:"procs"`
	// Shards is the kernel shard count the scenario ran with (0 in old
	// baselines, meaning 1). Events is identical across shard counts of
	// the same scenario; wall time is what sharding buys.
	Shards   int    `json:"shards,omitempty"`
	Events   uint64 `json:"events"`
	Switches uint64 `json:"context_switches"`
	// Rounds is the number of coordinator window rounds the sharded run
	// used (0 for the serial kernel). With adaptive horizons this is the
	// direct measure of barrier batching: fewer rounds per event means
	// wider windows.
	Rounds uint64 `json:"rounds,omitempty"`
	// HeapHighWater is the scheduler's peak pending-event count — the
	// memory-footprint side of throughput. omitempty keeps reports from
	// older baselines comparable (CheckRegression ignores the field).
	HeapHighWater uint64  `json:"heap_high_water,omitempty"`
	WallSec       float64 `json:"wall_sec"`
	EventsPerSec  float64 `json:"events_per_sec"`
}

// PerfFigure is the wall-clock cost of regenerating one figure.
type PerfFigure struct {
	ID      string  `json:"id"`
	WallSec float64 `json:"wall_sec"`
}

// PerfReport is the schema of BENCH_sim.json.
type PerfReport struct {
	GoMaxProcs int            `json:"gomaxprocs"`
	Jobs       int            `json:"jobs"`
	Quick      bool           `json:"quick"`
	Scenarios  []PerfScenario `json:"scenarios"`
	Figures    []PerfFigure   `json:"figures"`
	// Notes are informational annotations (e.g. the dpml-lint wall
	// time): CheckRegression iterates Scenarios only, so notes never
	// gate, and omitempty keeps older baselines comparable.
	Notes        []string `json:"notes,omitempty"`
	TotalWallSec float64  `json:"total_wall_sec"`
}

// perfScenario times `iters` back-to-back allreduces on a fresh world and
// reads the kernel's event counters afterwards.
func perfScenario(name string, cl *topology.Cluster, nodes, ppn, shards int, spec core.Spec, bytes, iters int) (PerfScenario, error) {
	job, err := topology.NewJob(cl, nodes, ppn)
	if err != nil {
		return PerfScenario{}, err
	}
	w := mpi.NewWorld(job, mpi.Config{Shards: shards})
	e := core.NewEngine(w)
	start := time.Now()
	err = w.Run(func(r *mpi.Rank) error {
		v := mpi.NewPhantom(mpi.Float32, bytes/4)
		for i := 0; i < iters; i++ {
			if err := e.Allreduce(r, spec, mpi.Sum, v); err != nil {
				return err
			}
		}
		return nil
	})
	wall := time.Since(start).Seconds()
	if err != nil {
		return PerfScenario{}, fmt.Errorf("%s: %w", name, err)
	}
	stats := w.SimStats()
	s := PerfScenario{
		Name:          name,
		Procs:         job.NumProcs(),
		Shards:        w.Shards(),
		Events:        stats.Events,
		Switches:      stats.ContextSwitch,
		Rounds:        w.Coordinator().Rounds(),
		HeapHighWater: stats.HeapHighWater,
		WallSec:       wall,
	}
	if wall > 0 {
		s.EventsPerSec = float64(s.Events) / wall
	}
	return s, nil
}

// SimPerf runs the simulator-throughput suite. Scenarios run serially so
// each wall time measures one world; figure regeneration honours opt.Jobs
// inside each figure but times figures one at a time for the same reason.
func SimPerf(opt Options) (*PerfReport, error) {
	return SimPerfFiltered(opt, "")
}

// SimPerfFiltered is SimPerf restricted to scenarios and figures whose
// name contains match (empty matches everything) — the profiling workflow
// is `dpml-bench -perf -perf-only dpml16 -cpuprofile cpu.pb.gz`, which
// times exactly one workload.
func SimPerfFiltered(opt Options, match string) (*PerfReport, error) {
	opt = opt.withDefaults()
	rep := &PerfReport{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Jobs:       opt.Jobs,
		Quick:      opt.Quick,
	}
	suiteStart := time.Now()

	type scenario struct {
		name       string
		cl         *topology.Cluster
		nodes, ppn int
		shards     int
		spec       core.Spec
		bytes      int
		iters      int
	}
	scenarios := []scenario{
		// Iteration counts keep every scenario's wall time well above the
		// sub-50ms regime where one scheduler hiccup on a small host swings
		// events/sec by more than CheckRegression's tolerance.
		{"allreduce-dpml8-64KB-8x8", topology.ClusterB(), 8, 8, 1, core.DPML(8), 64 << 10, 60},
		{"allreduce-flat-rd-64KB-8x8", topology.ClusterB(), 8, 8, 1, core.Flat(mpi.AlgRecursiveDoubling), 64 << 10, 120},
		{"allreduce-dpml8-1MB-8x8", topology.ClusterC(), 8, 8, 1, core.DPML(8), 1 << 20, 40},
		{"allreduce-sharp-node-256B-8x8", topology.ClusterA(), 8, 8, 1, core.Spec{Design: core.DesignSharpNode}, 256, 600},
		// The extension families' representative: the dual-root pipelined
		// tree posts every receive up front, so its event density per
		// allreduce is the highest of the new designs.
		{"allreduce-dualroot-s4-64KB-8x8", topology.ClusterB(), 8, 8, 1, core.DualRoot(4), 64 << 10, 60},
		// The fig10 job shape: 10,240 ranks in one world, the scale at
		// which ready-queue and flow-removal complexity dominates. Runs
		// even with Quick (it is one world, not a figure sweep). The
		// shardsN variants rerun it with the kernel partitioned across
		// that many threads: identical Events, shrinking wall time — the
		// suite's single-run parallel-scaling measurement.
		{"allreduce-dpml16-64KB-160x64", topology.ClusterD(), 160, 64, 1, core.DPML(16), 64 << 10, 2},
		{"allreduce-dpml16-64KB-160x64-shards2", topology.ClusterD(), 160, 64, 2, core.DPML(16), 64 << 10, 2},
		{"allreduce-dpml16-64KB-160x64-shards4", topology.ClusterD(), 160, 64, 4, core.DPML(16), 64 << 10, 2},
		{"allreduce-dpml16-64KB-160x64-shards8", topology.ClusterD(), 160, 64, 8, core.DPML(16), 64 << 10, 2},
		// The exascale regime the partitioned NET kernel exists for:
		// 4096 nodes x 28 ppn = 114,688 ranks in one world (cluster E,
		// 128 leaf subtrees, oversubscribed core). One allreduce at this
		// scale exercises every sharded path at once; Events stays
		// identical across shard counts like every other scenario.
		{"allreduce-dpml14-64KB-4096x28-exa", topology.ClusterE(), 4096, 28, 4, core.DPML(14), 64 << 10, 1},
	}
	for _, sc := range scenarios {
		if match != "" && !strings.Contains(sc.name, match) {
			continue
		}
		s, err := perfScenario(sc.name, sc.cl, sc.nodes, sc.ppn, sc.shards, sc.spec, sc.bytes, sc.iters)
		if err != nil {
			return nil, err
		}
		rep.Scenarios = append(rep.Scenarios, s)
	}

	for _, id := range FigureIDs() {
		if match != "" && !strings.Contains(id, match) {
			continue
		}
		start := time.Now()
		if _, err := Figure(id, opt); err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		rep.Figures = append(rep.Figures, PerfFigure{ID: id, WallSec: time.Since(start).Seconds()})
	}
	// Full (unfiltered) runs also record the static-analysis wall time:
	// the whole-module call-graph passes re-type-check the tree from
	// source, and the note keeps that cost visible against its ~30s
	// single-core budget without making it a regression gate.
	if match == "" {
		if note, ok := lintWallNote(); ok {
			rep.Notes = append(rep.Notes, note)
		}
	}
	rep.TotalWallSec = time.Since(suiteStart).Seconds()
	return rep, nil
}

// CheckRegression compares r against a committed baseline report and
// returns an error naming every scenario whose events/sec fell below
// tolerance of the baseline. Small (<= 64-proc) scenarios gate at tol;
// larger scenarios still gate, but at a doubled tolerance (capped at
// 90%), because their wall times are noisier on loaded runners — a
// halving of 10k-rank throughput must fail CI even if a 15% wobble
// should not. Scenarios present on only one side are ignored (adding a
// scenario must not break CI).
//
// When the baseline was recorded at a different GOMAXPROCS than this
// run, wall-clock ratios for multi-threaded scenarios (shards > 1 on
// either side) compare incommensurable machines: a single-core
// baseline records honest coordination overhead, a
// multi-core run records speedup, and gating one against the other
// mis-fires in both directions. Those scenarios are annotated in the
// returned notes instead of gated; single-threaded scenarios still gate
// normally, and the mismatch itself is always noted.
func CheckRegression(r, baseline *PerfReport, tol float64) (notes []string, err error) {
	crossHost := r.GoMaxProcs != baseline.GoMaxProcs
	if crossHost {
		notes = append(notes, fmt.Sprintf(
			"baseline recorded at gomaxprocs=%d, this run at gomaxprocs=%d: multi-shard scenarios are annotated, not gated",
			baseline.GoMaxProcs, r.GoMaxProcs))
	}
	base := make(map[string]PerfScenario, len(baseline.Scenarios))
	for _, s := range baseline.Scenarios {
		base[s.Name] = s
	}
	var bad []string
	for _, s := range r.Scenarios {
		b, ok := base[s.Name]
		if !ok || b.EventsPerSec <= 0 {
			continue
		}
		scTol := tol
		if b.Procs > 64 {
			scTol = 2 * tol
			if scTol > 0.9 {
				scTol = 0.9
			}
		}
		slow := s.EventsPerSec < (1-scTol)*b.EventsPerSec
		if crossHost && (s.Shards > 1 || b.Shards > 1) {
			if slow {
				notes = append(notes, fmt.Sprintf("%s: %.0f events/sec vs baseline %.0f (-%.0f%%); not gated, gomaxprocs differs",
					s.Name, s.EventsPerSec, b.EventsPerSec, 100*(1-s.EventsPerSec/b.EventsPerSec)))
			}
			continue
		}
		if slow {
			bad = append(bad, fmt.Sprintf("%s: %.0f events/sec vs baseline %.0f (-%.0f%%, tolerance %.0f%%)",
				s.Name, s.EventsPerSec, b.EventsPerSec, 100*(1-s.EventsPerSec/b.EventsPerSec), 100*scTol))
		}
	}
	if len(bad) > 0 {
		return notes, fmt.Errorf("simulator throughput regression:\n  %s", strings.Join(bad, "\n  "))
	}
	return notes, nil
}

// WriteJSON renders the report as indented JSON.
func (r *PerfReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadPerfReport loads a committed BENCH_sim.json.
func ReadPerfReport(path string) (*PerfReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r PerfReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}
