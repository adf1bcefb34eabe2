package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"dpml/internal/core"
	"dpml/internal/explore"
	"dpml/internal/mpi"
	"dpml/internal/sim"
	"dpml/internal/topology"
	"dpml/internal/trace"
)

// shards is the kernel shard count of every workload: one per core of
// the 2-core host the benchmark was tuned on. Context switches and the
// heap high-water mark repeat exactly only at a fixed shard count, so
// it is a constant, not a flag.
const shards = 2

// watchdog is the virtual-time deadline of every world: far beyond any
// workload's makespan (under 4 ms even with three allreduces on the
// oversubscribed fabric), so only a wedged run reaches it, and ends as a
// *sim.WatchdogError instead of a hang.
const watchdog = sim.Second

// workload is one benchmark input: a job shape, the designs run on it,
// and the vectors every rank reduces.
type workload struct {
	name       string
	cluster    func() *topology.Cluster
	nodes, ppn int
	designs    []explore.NamedDesign
	dtype      mpi.Datatype
	bytes      int
	// real selects seeded int64 vectors checked against the oracle;
	// otherwise every rank reduces a size-only phantom vector and the
	// seed has no effect.
	real bool
	// allreduces is the back-to-back allreduce count of one world. Host
	// time grows superlinearly with it on the oversubscribed fabric, so
	// it is part of the workload and reported with every result.
	allreduces int
}

// workloads are the benchmark's inputs, each chosen to stress a
// different layer (see README.md).
var workloads = []workload{
	// The Fig. 10 shape: at 10,240 ranks kernel scheduling and proc
	// switching dominate host time.
	{
		name:    "scale-10k",
		cluster: topology.ClusterD, nodes: 160, ppn: 64,
		designs: []explore.NamedDesign{{Name: "dpml-16", Spec: core.DPML(16)}},
		dtype:   mpi.Float32, bytes: 64 << 10, allreduces: 2,
	},
	// 28 leaders per node on an oversubscribed core keep thousands of
	// flows live, so water-fill takes about half the CPU. One allreduce
	// per world: two take 28 s on a 2-core host, too long to repeat
	// within a run (-allreduces measures the growth).
	{
		name:    "fabric-oversub",
		cluster: topology.ClusterE, nodes: 64, ppn: 28,
		designs: []explore.NamedDesign{{Name: "dpml-28", Spec: core.DPML(28)}},
		dtype:   mpi.Float32, bytes: 1 << 20, allreduces: 1,
	},
	// All ten designs on real int64 data, checked element-wise: copies
	// and reduction dominate, and it is the workload that verifies data.
	{
		name:    "verified-64",
		cluster: topology.ClusterA, nodes: 8, ppn: 8,
		designs: explore.Designs(),
		dtype:   mpi.Int64, bytes: 1 << 20, real: true, allreduces: 1,
	},
}

func workloadByName(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// Benchmark-side spans, each around one group of public calls.
const (
	spanJob     = iota // topology.NewJob
	spanWorld          // mpi.NewWorld
	spanEngine         // core.NewEngine
	spanInputs         // the per-rank vectors
	spanRun            // World.Run
	spanMetrics        // SimStats, Metrics, Rounds, Flows.Stats and the recorder's summaries
	spanVerify         // the element-wise output check
	numSpans
)

var spanNames = [numSpans]string{
	"setup.job_s", "setup.world_s", "setup.engine_s", "setup.inputs_s",
	"bench.run_s", "bench.metrics_s", "bench.verify_s",
}

// phaseNames are the collective phases core records, in trace's
// canonical order.
var phaseNames = [...]string{
	trace.PhaseCopy, trace.PhaseReduce, trace.PhaseInter, trace.PhaseSharp,
	trace.PhaseBcast, trace.PhaseFlat, trace.PhaseFallback,
	trace.PhaseTreeReduce, trace.PhaseTreeBcast, trace.PhaseGroup, trace.PhasePAP,
}

// counters are one world's deterministic results: simulated quantities
// and work counts that must repeat exactly for a fixed shard count.
type counters struct {
	allreduces     int // rank-level: ranks × back-to-back allreduces
	elapsed        sim.Duration
	events         uint64
	switches       uint64
	heapHighWater  uint64
	rounds         uint64
	flowsStarted   uint64
	flowsCompleted uint64
	recomputes     uint64
	netRecomputes  uint64 // the network LP's engine alone, without the per-node memory engines
	fastPath       uint64
	maxComponents  uint64
	netMessages    uint64
	netBytes       uint64
	memCopies      uint64
	memBytes       uint64
	nicMaxBacklog  uint64 // ns
	// linkMaxUtilBits holds the busiest link's utilization as float64
	// bits, so the repeat check compares it exactly.
	linkMaxUtilBits uint64
	tr              recorded
}

// recorded are the trace recorder's simulated totals for one world, zero
// in untraced repeats.
type recorded struct {
	phaseBusy    [len(phaseNames)]sim.Duration // summed over ranks, indexed like phaseNames
	sends        int
	computeBytes int64
	copyBytes    int64
}

// sample is one repeat of a workload: every design's world built, run,
// read and checked once.
type sample struct {
	traced    bool
	spans     [numSpans]time.Duration
	cpu       time.Duration // user+sys over the World.Run calls
	allocB    uint64        // bytes allocated during the World.Run calls
	attempted int           // rank-level allreduces
	failed    int
	worlds    []counters // one per design, in design order
	// Traced repeats only.
	layers   [numBuckets]time.Duration
	samples  int
	heapPeak uint64
}

// span times f as benchmark span i and, in a traced repeat, labels the
// CPU samples f causes with the span's name, so the profile fold can
// keep World.Run apart from set-up and verification.
func (s *sample) span(i int, f func()) {
	start := time.Now()
	if s.traced {
		pprof.Do(context.Background(), pprof.Labels(spanLabel, spanNames[i]), func(context.Context) { f() })
	} else {
		f()
	}
	s.spans[i] += time.Since(start)
}

// setup is the time spent building jobs, worlds, engines and inputs.
func (s *sample) setup() time.Duration {
	return s.spans[spanJob] + s.spans[spanWorld] + s.spans[spanEngine] + s.spans[spanInputs]
}

// oracle generates the verified workload's inputs in closed form from
// the seed: rank r's element i is base[i] + off[r]·(i%7+1), so every
// output element must be ranks·base[i] + Σoff·(i%7+1). Values stay
// below 2^27, so a 64-rank int64 sum cannot overflow.
type oracle struct {
	base   []int64
	off    []int64
	sumOff int64
}

func newOracle(seed uint64, ranks, elems int) *oracle {
	o := &oracle{base: make([]int64, elems), off: make([]int64, ranks)}
	state := seed
	for i := range o.base {
		o.base[i] = int64(splitmix64(&state) >> 40)
	}
	for r := range o.off {
		o.off[r] = int64(splitmix64(&state)>>40) + 1
		o.sumOff += o.off[r]
	}
	return o
}

func (o *oracle) fill(rank int, xs []int64) {
	for i := range xs {
		xs[i] = o.base[i] + o.off[rank]*int64(i%7+1)
	}
}

// badRanks counts the vectors holding any element other than the sum.
func (o *oracle) badRanks(vecs []*mpi.Vector) int {
	ranks := int64(len(o.off))
	bad := 0
	for _, v := range vecs {
		xs := v.Int64s()
		if len(xs) != len(o.base) {
			bad++
			continue
		}
		for i, x := range xs {
			if x != ranks*o.base[i]+o.sumOff*int64(i%7+1) {
				bad++
				break
			}
		}
	}
	return bad
}

func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// world is one design's simulated job within a repeat.
type world struct {
	wl   *workload
	spec core.Spec
	w    *mpi.World
	e    *core.Engine
	rec  *trace.Recorder
	vecs []*mpi.Vector
	orc  *oracle
}

// build sets up one world for design d through the public constructors.
func (wl *workload) build(d explore.NamedDesign, orc *oracle, s *sample) (*world, error) {
	wd := &world{wl: wl, spec: d.Spec, orc: orc}
	var job *topology.Job
	var err error
	s.span(spanJob, func() { job, err = topology.NewJob(wl.cluster(), wl.nodes, wl.ppn) })
	if err != nil {
		return nil, fmt.Errorf("%s: %w", wl.name, err)
	}
	if s.traced {
		wd.rec = trace.New(0)
	}
	cfg := mpi.Config{Shards: shards, Trace: wd.rec, Watchdog: watchdog}
	s.span(spanWorld, func() { wd.w = mpi.NewWorld(job, cfg) })
	s.span(spanEngine, func() { wd.e = core.NewEngine(wd.w) })
	s.span(spanInputs, func() {
		n := wl.bytes / wl.dtype.Size()
		wd.vecs = make([]*mpi.Vector, job.NumProcs())
		for r := range wd.vecs {
			if !wl.real {
				wd.vecs[r] = mpi.NewPhantom(wl.dtype, n)
				continue
			}
			wd.vecs[r] = mpi.NewVector(wl.dtype, n)
			orc.fill(r, wd.vecs[r].Int64s())
		}
	})
	return wd, nil
}

// run performs the world's allreduces on every rank, measuring CPU time
// and allocation around World.Run. A panic in a rank comes back from Run
// as a *sim.PanicError, a wedged run as a deadlock or watchdog error.
func (wd *world) run(s *sample) error {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	cpu0 := cpuTime()
	var err error
	s.span(spanRun, func() {
		err = wd.w.Run(func(r *mpi.Rank) error {
			v := wd.vecs[r.Rank()]
			for i := 0; i < wd.wl.allreduces; i++ {
				if err := wd.e.Allreduce(r, wd.spec, mpi.Sum, v); err != nil {
					return err
				}
			}
			return nil
		})
	})
	s.cpu += cpuTime() - cpu0
	runtime.ReadMemStats(&ms)
	s.allocB += ms.TotalAlloc - alloc0
	return err
}

// read appends the world's deterministic counters to the sample.
func (wd *world) read(s *sample) {
	var c counters
	s.span(spanMetrics, func() {
		w := wd.w
		st := w.SimStats()
		m := w.Metrics()
		get := func(name string) uint64 {
			v, _ := m.Get(name)
			return uint64(v)
		}
		util, _ := m.Get("link.max_utilization")
		c = counters{
			allreduces:      w.Job.NumProcs() * wd.wl.allreduces,
			elapsed:         w.Now().Sub(0),
			events:          st.Events,
			switches:        st.ContextSwitch,
			heapHighWater:   st.HeapHighWater,
			rounds:          w.Coordinator().Rounds(),
			flowsStarted:    get("flows.started"),
			flowsCompleted:  get("flows.completed"),
			recomputes:      get("flows.recomputes"),
			netRecomputes:   w.Flows.Stats.Recompute,
			fastPath:        get("flows.fast_path"),
			maxComponents:   w.Flows.Stats.MaxComponents,
			netMessages:     get("net.messages"),
			netBytes:        get("net.bytes"),
			memCopies:       get("mem.copies"),
			memBytes:        get("mem.bytes"),
			nicMaxBacklog:   get("nic.max_backlog"),
			linkMaxUtilBits: math.Float64bits(util),
		}
		if wd.rec == nil {
			return
		}
		for _, ps := range wd.rec.PhaseStats() {
			for i, name := range phaseNames {
				if ps.Phase == name {
					c.tr.phaseBusy[i] = ps.Busy
				}
			}
		}
		for _, ks := range wd.rec.ByKind() {
			switch ks.Kind {
			case trace.KindSend:
				c.tr.sends = ks.Count
			case trace.KindCompute:
				c.tr.computeBytes = ks.Bytes
			case trace.KindShmCopy:
				c.tr.copyBytes = ks.Bytes
			}
		}
	})
	s.worlds = append(s.worlds, c)
}

// check counts the world's rank-level allreduces into the sample: all of
// them fail when Run returned an error, and on real data every rank
// whose output differs from the oracle anywhere fails its allreduces.
func (wd *world) check(s *sample, runErr error) {
	n := len(wd.vecs) * wd.wl.allreduces
	s.attempted += n
	if runErr != nil {
		s.failed += n
		fmt.Fprintf(os.Stderr, "%s %s: %v\n", wd.wl.name, wd.spec, runErr)
		return
	}
	if wd.orc == nil {
		return
	}
	var bad int
	s.span(spanVerify, func() { bad = wd.orc.badRanks(wd.vecs) })
	if bad > 0 {
		s.failed += bad * wd.wl.allreduces
		fmt.Fprintf(os.Stderr, "%s %s: %d ranks hold a wrong sum\n", wd.wl.name, wd.spec, bad)
	}
}

// repeat builds, runs, reads and checks one world per design. A traced
// repeat also records each world with a trace.Recorder, samples the
// live heap and folds a CPU profile of its World.Run spans by layer.
func (wl *workload) repeat(orc *oracle, traced bool) (*sample, error) {
	s := &sample{traced: traced}
	var prof bytes.Buffer
	var heap *heapSampler
	if traced {
		heap = startHeapSampler()
		if err := pprof.StartCPUProfile(&prof); err != nil {
			heap.stop()
			return nil, err
		}
	}
	for _, d := range wl.designs {
		// Collect the previous world's garbage outside the measured spans,
		// so each world's GC cost is its own.
		runtime.GC()
		wd, err := wl.build(d, orc, s)
		if err != nil {
			if traced {
				pprof.StopCPUProfile()
				heap.stop()
			}
			return nil, err
		}
		runErr := wd.run(s)
		wd.read(s)
		wd.check(s, runErr)
	}
	if !traced {
		return s, nil
	}
	pprof.StopCPUProfile()
	s.heapPeak = heap.stop()
	layers, n, err := foldProfile(prof.Bytes(), spanNames[spanRun])
	if err != nil {
		return nil, fmt.Errorf("fold CPU profile: %w", err)
	}
	s.layers, s.samples = layers, n
	return s, nil
}

// cpuTime returns the process's user+sys CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail on Linux.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
